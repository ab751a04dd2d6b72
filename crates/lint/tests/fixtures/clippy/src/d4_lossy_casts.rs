// D4: lossy integer `as` casts. Widening and masked casts are not
// flagged, and neither is a float target.

fn decode_len(raw: u64) -> usize {
    raw as usize // clippy::cast_possible_truncation
}

fn frame(len: usize, t: u64, delta: i64) -> (u32, i64, u64, f64) {
    let prefix = len as u32; // clippy::cast_possible_truncation
    let signed = t as i64; // clippy::cast_possible_wrap
    let magnitude = delta as u64; // clippy::cast_sign_loss
    let seconds = t as f64; // not flagged: float target
    (prefix, signed, magnitude, seconds)
}

fn widen(byte: u8, word: u32) -> (u64, usize) {
    (byte as u64, (word & 0xff) as usize) // not flagged: lossless
}
