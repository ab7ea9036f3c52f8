//! Workload inputs as pure functions of the workload seed: the closed
//! loop's request order and the churning workload's drift points. The
//! engine sees only the instances these pick.

use tinynn::rng::SplitMix64;

/// A seeded permutation of `0..n`: the order closed-loop clients cycle
/// through their population.
pub fn closed_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0xC105_ED00);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i + 1));
    }
    order
}

/// Schema-drift points: before every `every`-th request one database,
/// drawn uniformly from `0..n_dbs`, is invalidated. Yields
/// `(request index, database index)` pairs in request order, without
/// end.
pub fn drift_points(seed: u64, every: usize, n_dbs: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0xD21F_7000);
    (every.max(1)..)
        .step_by(every.max(1))
        .map(move |i| (i, rng.next_below(n_dbs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        assert_eq!(closed_order(3, 50), closed_order(3, 50));
        assert_ne!(closed_order(3, 50), closed_order(4, 50));
        let drift = |seed| drift_points(seed, 50, 28).take(40).collect::<Vec<_>>();
        assert_eq!(drift(3), drift(3));
        assert_ne!(drift(3), drift(4));
    }

    #[test]
    fn schedules_have_the_promised_shape() {
        let mut order = closed_order(9, 100);
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>(), "a permutation");

        let drift: Vec<_> = drift_points(9, 50, 28).take(39).collect();
        assert_eq!(drift[0].0, 50);
        assert_eq!(drift[38].0, 1950);
        assert!(drift.iter().all(|&(_, db)| db < 28));
    }
}
