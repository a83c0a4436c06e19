//! Order statistics for the harness: nearest-rank percentiles (the same
//! rule `ga-scenario` summaries use) and per-block rates.

/// Ascending copy of `values`.
pub fn sorted<T: Copy + PartialOrd>(values: &[T]) -> Vec<T> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p > 100`.
pub fn percentile<T: Copy>(ascending: &[T], p: usize) -> T {
    assert!(!ascending.is_empty(), "percentile of an empty sample");
    assert!(p <= 100, "percentile above 100");
    let rank = (p * ascending.len()).div_ceil(100).max(1);
    ascending[rank - 1]
}

/// Nearest-rank median of an unsorted sample.
pub fn median<T: Copy + PartialOrd>(values: &[T]) -> T {
    percentile(&sorted(values), 50)
}

/// Splits the per-op times into `blocks` contiguous blocks of equal op
/// count (a remainder shorter than one block is left out) and returns
/// each block's rate in ops per second, in run order. Fewer ops than
/// blocks gives one block per op.
pub fn block_rates(op_ns: &[u64], blocks: usize) -> Vec<f64> {
    let blocks = blocks.min(op_ns.len()).max(1);
    let per_block = op_ns.len() / blocks;
    op_ns
        .chunks_exact(per_block.max(1))
        .take(blocks)
        .map(|block| {
            let ns: u64 = block.iter().sum();
            block.len() as f64 * 1e9 / ns.max(1) as f64
        })
        .collect()
}

/// Positions of the middle half of `values` by size — ranks n/4 up to
/// n − n/4 — the ops a layer split is averaged over. Means over one set
/// of ops add up (medians taken part by part do not), and the middle
/// half leaves out the ops a neighbour on the host slowed down.
pub fn middle_half(values: &[u64]) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..values.len()).collect();
    by_size.sort_by_key(|&i| values[i]);
    let cut = values.len() / 4;
    by_size[cut..values.len() - cut].to_vec()
}

/// Mean of `value(i)` over the positions in `at`.
pub fn mean_at(at: &[usize], value: impl Fn(usize) -> u64) -> f64 {
    at.iter().map(|&i| value(i) as f64).sum::<f64>() / at.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_fixed_vectors() {
        let v = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 0), 10);
        assert_eq!(percentile(&v, 10), 10);
        assert_eq!(percentile(&v, 11), 20);
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 51), 60);
        assert_eq!(percentile(&v, 99), 100);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7u64], 50), 7);
        assert_eq!(percentile(&[1.5f64, 2.5], 50), 1.5);
    }

    #[test]
    fn median_sorts_first_and_takes_the_lower_middle() {
        assert_eq!(median(&[5u64, 1, 4, 2, 3]), 3);
        assert_eq!(median(&[4u64, 1, 3, 2]), 2);
        assert_eq!(median(&[2.0f64, 8.0, 4.0]), 4.0);
    }

    #[test]
    fn the_middle_half_drops_a_quarter_at_each_end() {
        let v = [90u64, 10, 50, 70, 30, 20, 80, 40];
        let mut middle = middle_half(&v);
        middle.sort_unstable();
        assert_eq!(middle, vec![2, 3, 4, 7]); // 50, 70, 30, 40
        assert_eq!(mean_at(&middle, |i| v[i]), 47.5);
        assert_eq!(middle_half(&[5u64, 1, 3]), vec![1, 2, 0]);
    }

    #[test]
    fn block_rates_are_per_block_ops_over_block_time() {
        // Two blocks of two ops: 2 ops in 1 s, then 2 ops in 4 s.
        let ns = [500_000_000u64, 500_000_000, 2_000_000_000, 2_000_000_000];
        assert_eq!(block_rates(&ns, 2), vec![2.0, 0.5]);
        // A remainder shorter than a block is left out.
        let ns = [1_000_000_000u64; 7];
        assert_eq!(block_rates(&ns, 3), vec![1.0, 1.0, 1.0]);
        // Fewer ops than blocks: one block per op.
        assert_eq!(
            block_rates(&[250_000_000u64, 500_000_000], 20),
            vec![4.0, 2.0]
        );
    }
}
