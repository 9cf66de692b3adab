//! [`Session::rebased`] is the structural form of the text rebase: for
//! every evaluation pipeline's session and any offset, moving the parsed
//! extents equals parsing the body with every `BUF` base rewritten
//! ([`rebase_session`]).

use mealib_verify::dataflow::parse_session;
use mealib_workloads::sessions::{pipeline_sessions, rebase_session};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rebased_equals_parsing_the_rebased_text(offset in 0u64..(1 << 48)) {
        for (name, body) in pipeline_sessions() {
            let got = parse_session(&body).unwrap().rebased(offset).unwrap();
            let want = parse_session(&rebase_session(&body, offset)).unwrap();
            prop_assert_eq!(&got.extents, &want.extents, "{}", name);
            prop_assert_eq!(&got.program, &want.program, "{}", name);
            prop_assert_eq!(&got.lines, &want.lines, "{}", name);
            prop_assert_eq!(&got.host_ops, &want.host_ops, "{}", name);
            prop_assert_eq!(got.budgets, want.budgets, "{}", name);
            prop_assert_eq!(got.mem_layer, want.mem_layer, "{}", name);
        }
    }
}

#[test]
fn a_rebase_past_the_address_space_is_a_typed_error() {
    let s = parse_session("BUF a 0x1000 0x100\nBUF b 0x2000 0x10\n").unwrap();
    // The highest offset that keeps `b`'s end inside the 64-bit space.
    let top = u64::MAX - 0x2010;
    let moved = s.rebased(top).unwrap();
    assert_eq!(moved.extents["b"].start().get(), u64::MAX - 0x10);
    // One byte further, `b` wraps: the base add or the end does.
    for offset in [top + 1, u64::MAX] {
        let err = s.rebased(offset).unwrap_err().to_string();
        assert!(err.contains("64-bit address space"), "{err}");
    }
    // The source session is untouched.
    assert_eq!(s.extents["b"].start().get(), 0x2000);
}
