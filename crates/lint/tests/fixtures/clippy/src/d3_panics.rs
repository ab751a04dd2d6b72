// D3: panicking calls in library code, plus the test exemption (the
// #[cfg(test)] block at the bottom must NOT be flagged).

fn parse(input: &str) -> u64 {
    let n = input.parse::<u64>().unwrap(); // clippy::unwrap_used
    let m = input.find(':').expect("has a colon"); // clippy::expect_used
    if m == 0 {
        panic!("empty key"); // clippy::panic
    }
    n
}

fn shield(input: &str) -> u64 {
    // clippy::disallowed_methods: jcdn-exec owns the one unwind boundary.
    std::panic::catch_unwind(|| input.parse::<u64>().unwrap_or(0)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn ok_in_tests() {
        super::parse("1:2");
        let _ = "3".parse::<u64>().unwrap(); // exempt: allow-unwrap-in-tests
    }
}
