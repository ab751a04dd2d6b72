// D9: unchecked arithmetic on a length read off the wire. The codec
// modules opt in at their top, as this one does.
#![warn(clippy::arithmetic_side_effects)]

fn frame_end(len: u64) -> (u64, Option<u64>) {
    let end = len + 8; // clippy::arithmetic_side_effects
    let checked = len.checked_add(8); // not flagged: checked
    (end, checked)
}
