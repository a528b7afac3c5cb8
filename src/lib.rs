//! Facade crate re-exporting the Zaatar workspace.

#![forbid(unsafe_code)]

pub use zaatar_apps as apps;
pub use zaatar_cc as cc;
pub use zaatar_core as core;
pub use zaatar_crypto as crypto;
pub use zaatar_field as field;
pub use zaatar_mem as mem;
pub use zaatar_obs as obs;
pub use zaatar_poly as poly;
pub use zaatar_sched as sched;
pub use zaatar_server as server;
pub use zaatar_transport as transport;
