// D1: wall clock and ambient randomness, banned by clippy.toml's
// `disallowed-methods` and `disallowed-types`.
use std::collections::hash_map::RandomState; // clippy::disallowed_types
use std::time::{Instant, SystemTime};

fn stamp() -> u64 {
    let wall = SystemTime::now(); // clippy::disallowed_methods
    let mono = Instant::now(); // clippy::disallowed_methods
    let state = RandomState::new(); // clippy::disallowed_types
    let _ = (wall, mono, state);
    0
}
