// Fixture: contains a D10 violation that the sibling `allowlist.toml`
// exempts by path — the linter must report nothing for this file when the
// allowlist is loaded.

fn dispatch(version: u16) -> u8 {
    match version {
        1 | 2 => 1,
        _ => 0,
    }
}
