//! Fixture: sequential sampling under corpus-shared waivers — plus one
//! waiver whose key does not match, which therefore stays red.

pub fn corpus_shared(rng: &mut Rng) -> f64 {
    // rts-allow(corpus-shared): s-signal stream, model structure
    // outside the hidden-state corpus
    let signal = rng.next_gaussian();
    let prob = rng.next_gaussian(); // rts-allow(corpus-shared): softmax stream
    signal + prob
}

pub fn wrong_key(rng: &mut Rng) -> f64 {
    // rts-allow(iter-order): wrong key — a sequential-sampler finding
    // needs the corpus-shared key, so this annotation does not cover it
    rng.next_gaussian()
}
