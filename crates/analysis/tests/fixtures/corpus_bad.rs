//! Fixture: corpus violations, none waived — direct sequential
//! sampling on a synthesis path. The paired samplers are clean and
//! must not trip the pass.

pub fn synthesize(rng: &mut Rng, row: &mut [f64]) -> f64 {
    rng.fill_gaussian(row);
    let (a, _b) = rng.next_gaussian_pair();
    let tail = rng.next_gaussian();
    a + tail + rng.next_gaussian()
}
