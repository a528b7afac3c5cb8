//! Blocked matrix–vector kernel over query matrices.
//!
//! The prover's query-answering phase is a dense matrix–vector product:
//! every one of the `ρ·(3ρ_lin+3)` z-oracle queries (and the h-oracle's
//! `ρ·(3ρ_lin+1)`) is a length-`|Z|` (resp. `|C|+1`) dot product against
//! the same proof vector. Taking them one `dot()` at a time re-reads
//! the proof vector once per query and the scattered per-query `Vec`s
//! defeat the cache entirely. [`QueryMatrix`] packs the queries into one
//! contiguous row-major allocation so a single blocked pass over the
//! proof vector answers every query: for each column block, the block of
//! `v` stays resident while every row consumes it.
//!
//! Rows are sharded across workers with [`parallel_map`], and each
//! (row, block) partial sum is one deferred-reduction [`Field::dot`].
//! Field arithmetic is exact, so neither re-associating the per-block partial sums nor
//! reducing once per block instead of once per term can change any
//! answer — batched results are bit-identical to the serial per-query
//! path (locked down by `tests/batch_differential.rs`).

use zaatar_field::Field;
use zaatar_sched::{parallel_map, shard_batch};

/// Column-block width of the kernel. 256 elements is a 4 KiB stripe of
/// `v` on F128 and 8 KiB on F220 — L1-resident alongside the row
/// stripes streaming past it. Each (row, block) pair is one
/// [`Field::dot`], so the block is also the reduction interval: 256
/// unreduced products per Montgomery reduction.
const BLOCK: usize = 256;

/// A set of equal-length queries packed into one contiguous row-major
/// matrix (one query per row).
#[derive(Clone, Debug)]
pub struct QueryMatrix<F> {
    data: Vec<F>,
    rows: usize,
    cols: usize,
}

impl<F: Field> QueryMatrix<F> {
    /// The `rows × cols` matrix laid out row-major in `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly `rows × cols` elements.
    pub(crate) fn from_parts(data: Vec<F>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "query rows must have equal length");
        QueryMatrix { data, rows, cols }
    }

    /// The matrix as consecutive blocks of `rows_per_block` rows each
    /// (`rows_per_block` must divide the row count), for builders that
    /// write disjoint blocks from different workers.
    pub(crate) fn row_blocks_mut(&mut self, rows_per_block: usize) -> Vec<&mut [F]> {
        debug_assert_eq!(self.rows % rows_per_block, 0, "blocks must tile the rows");
        let block_len = rows_per_block * self.cols;
        let mut rest = self.data.as_mut_slice();
        (0..self.rows / rows_per_block)
            .map(|_| {
                let (block, tail) = std::mem::take(&mut rest).split_at_mut(block_len);
                rest = tail;
                block
            })
            .collect()
    }

    /// Packs `rows` (all of length `cols`) into a contiguous matrix.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the first row's.
    pub fn pack(rows: &[&[F]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == cols), "query rows must have equal length");
        QueryMatrix {
            data: rows.concat(),
            rows: rows.len(),
            cols,
        }
    }

    /// Number of queries (rows).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Query length (columns).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix holds no queries.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// One packed row.
    pub fn row(&self, r: usize) -> &[F] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The blocked matrix–vector product `M·v`: answers every query in
    /// one pass over `v`, sharding rows across up to `workers` threads,
    /// into a caller-owned buffer (cleared first), so a batch loop reuses
    /// one answer vector's allocation across instances.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the query length.
    pub fn matvec_into(&self, v: &[F], workers: usize, out: &mut Vec<F>) {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        out.clear();
        out.resize(self.rows, F::ZERO);
        // Each shard of rows accumulates straight into its own stretch
        // of `out`: the caller's buffer is the only answer storage.
        let mut rest = out.as_mut_slice();
        let mut shards = Vec::new();
        for rows in shard_batch(self.rows, workers.max(1)) {
            let (part, tail) = rest.split_at_mut(rows.len());
            rest = tail;
            if !rows.is_empty() {
                shards.push((rows, part));
            }
        }
        parallel_map(shards, workers, |(rows, part)| self.matvec_rows(v, rows, part));
    }

    /// The kernel proper, for one shard of rows accumulating into the
    /// zeroed `acc` (one slot per row): column-blocked so each stripe of
    /// `v` is loaded once and consumed by every row in the shard before
    /// moving on.
    fn matvec_rows(&self, v: &[F], rows: std::ops::Range<usize>, acc: &mut [F]) {
        let mut col = 0;
        while col < self.cols {
            let end = (col + BLOCK).min(self.cols);
            let vb = &v[col..end];
            for (slot, r) in acc.iter_mut().zip(rows.clone()) {
                let row = &self.data[r * self.cols + col..r * self.cols + end];
                *slot += F::dot(row, vb);
            }
            col = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::testutil::SplitMix64;
    use zaatar_field::{F128, F220, F61};

    /// The oracle: one reduced multiply and one modular add per term.
    fn dot<F: Field>(a: &[F], b: &[F]) -> F {
        a.iter().zip(b.iter()).map(|(x, y)| *x * *y).sum()
    }

    /// `M·v` as the session computes it: the answers of
    /// `decommit_packed_into` (its consistency answer is not compared,
    /// so `t` is `v` itself).
    fn matvec<F: Field>(m: &QueryMatrix<F>, v: &[F], workers: usize) -> Vec<F> {
        crate::commit::decommit_packed_into(v, m, v, workers, Vec::new()).answers
    }

    fn check_matvec_matches_per_row_dot<F: Field>() {
        let mut gen = SplitMix64::new(0xbeef);
        for (rows, cols) in [(1, 1), (3, 7), (17, 300), (64, 1030)] {
            let queries: Vec<Vec<F>> = (0..rows).map(|_| gen.field_vec(cols)).collect();
            let refs: Vec<&[F]> = queries.iter().map(|q| q.as_slice()).collect();
            let m = QueryMatrix::pack(&refs);
            let v: Vec<F> = gen.field_vec(cols);
            let expect: Vec<F> = queries.iter().map(|q| dot(q, &v)).collect();
            for workers in [1, 2, 8] {
                assert_eq!(matvec(&m, &v, workers), expect, "{rows}x{cols} w={workers}");
            }
        }
    }

    #[test]
    fn matvec_matches_per_row_dot() {
        check_matvec_matches_per_row_dot::<F61>();
    }

    /// The fields a session runs on: on F61 a block's wide sum never
    /// carries into the accumulator's spare limb, on F128 it does from
    /// the second term, and F220's high half runs far past `p`.
    #[test]
    fn matvec_matches_per_row_dot_on_f128_and_f220() {
        check_matvec_matches_per_row_dot::<F128>();
        check_matvec_matches_per_row_dot::<F220>();
    }

    #[test]
    fn empty_matrix_yields_no_answers() {
        let m = QueryMatrix::<F61>::pack(&[]);
        assert!(m.is_empty());
        assert!(matvec(&m, &[], 4).is_empty());
    }

    #[test]
    fn rows_round_trip() {
        let mut gen = SplitMix64::new(7);
        let queries: Vec<Vec<F61>> = (0..5).map(|_| gen.field_vec(11)).collect();
        let refs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let m = QueryMatrix::pack(&refs);
        assert_eq!(m.num_rows(), 5);
        assert_eq!(m.num_cols(), 11);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(m.row(i), q.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn wrong_vector_length_panics() {
        let q = [F61::ONE; 4];
        let m = QueryMatrix::pack(&[&q[..]]);
        let _ = matvec(&m, &[F61::ONE; 3], 1);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        let a = [F61::ONE; 4];
        let b = [F61::ONE; 3];
        let _ = QueryMatrix::pack(&[&a[..], &b[..]]);
    }
}
