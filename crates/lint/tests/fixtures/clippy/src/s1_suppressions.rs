// S1: a suppression must be an `#[expect]` with a reason. An `#[allow]`
// fails, and so does an expectation nothing fulfils.

#[allow(clippy::unwrap_used)] // clippy::allow_attributes, allow_attributes_without_reason
fn f(x: Option<u64>) -> u64 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")] // unfulfilled_lint_expectations
fn g(x: Option<u64>) -> u64 {
    x.unwrap_or(0)
}
