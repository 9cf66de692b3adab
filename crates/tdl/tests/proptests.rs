//! Property tests: TDL print/parse and descriptor encode/decode
//! round-trips over randomly generated programs, and the text parser's
//! robustness: arbitrary text and token soup get `Ok` or a typed
//! [`mealib_tdl::ParseError`], never a panic.

use std::collections::BTreeMap;

use mealib_tdl::{
    parse, parse_with_lines_at, AcceleratorKind, CompBlock, Descriptor, LoopBlock, ParamBag,
    PassBlock, TdlItem, TdlProgram,
};
use proptest::prelude::*;

fn accel_strategy() -> impl Strategy<Value = AcceleratorKind> {
    proptest::sample::select(AcceleratorKind::ALL.to_vec())
}

/// TDL tokens, malformed ones and numbers at the `u64` limit, each
/// with the separator that follows it.
fn soup_token() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "PASS",
        "LOOP",
        "COMP",
        "in",
        "out",
        "params",
        "=",
        "{",
        "}",
        "\"",
        "\"p.para\"",
        "FFT",
        "AXPY",
        "GEMV",
        "RESHP",
        "WAT",
        "a",
        "b",
        "0",
        "3",
        "#",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "0x10",
        "\u{e9}",
    ];
    (
        proptest::sample::select(TOKENS.to_vec()),
        proptest::sample::select(vec!["", " ", "\n", "\t"]),
    )
        .prop_map(|(tok, sep)| format!("{tok}{sep}"))
}

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,10}".prop_map(|s| s)
}

fn comp_strategy() -> impl Strategy<Value = CompBlock> {
    (accel_strategy(), ident_strategy()).prop_map(|(a, p)| CompBlock::new(a, format!("{p}.para")))
}

fn pass_strategy() -> impl Strategy<Value = PassBlock> {
    (
        ident_strategy(),
        ident_strategy(),
        proptest::collection::vec(comp_strategy(), 1..4),
    )
        .prop_map(|(i, o, comps)| PassBlock::new(i, o, comps))
}

fn item_strategy() -> impl Strategy<Value = TdlItem> {
    prop_oneof![
        pass_strategy().prop_map(TdlItem::Pass),
        (
            1u64..1_000_000,
            proptest::collection::vec(pass_strategy(), 1..3)
        )
            .prop_map(|(n, body)| TdlItem::Loop(LoopBlock::new(n, body))),
    ]
}

fn program_strategy() -> impl Strategy<Value = TdlProgram> {
    proptest::collection::vec(item_strategy(), 0..5).prop_map(TdlProgram::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn print_then_parse_is_identity(program in program_strategy()) {
        let printed = program.to_string();
        let reparsed = parse(&printed).expect("printer output must parse");
        prop_assert_eq!(program, reparsed);
    }

    #[test]
    fn descriptor_encode_decode_preserves_structure(program in program_strategy()) {
        let mut params = ParamBag::new();
        for name in program.param_files() {
            params.insert(name.to_string(), vec![0xAB; (name.len() % 17) + 1]);
        }
        let mut buffers = BTreeMap::new();
        let mut next = 0x1000u64;
        for item in &program.items {
            let passes: Vec<&PassBlock> = match item {
                TdlItem::Pass(p) => vec![p],
                TdlItem::Loop(l) => l.body.iter().collect(),
            };
            for p in passes {
                buffers.entry(p.input.clone()).or_insert_with(|| { next += 0x1000; next });
                buffers.entry(p.output.clone()).or_insert_with(|| { next += 0x1000; next });
            }
        }
        let d = Descriptor::encode(&program, &params, &buffers).expect("encodable");
        let decoded = d.decode().expect("decodable");
        // Structure checks: same dynamic invocation count, same number of
        // accelerator instructions as static invocations.
        prop_assert_eq!(d.total_invocations().unwrap(), program.total_invocations());
        let accel_instrs = decoded
            .iter()
            .filter(|i| matches!(i, mealib_tdl::descriptor::DecodedInstr::Accel { .. }))
            .count() as u64;
        prop_assert_eq!(accel_instrs, program.static_invocations());
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Descriptor::decode_bytes(&bytes);
    }

    #[test]
    fn parsing_arbitrary_text_never_panics(src in "\\PC{0,300}") {
        let _ = parse(&src);
    }

    #[test]
    fn parsing_token_soup_never_panics(
        toks in proptest::collection::vec(soup_token(), 0..40),
        first_line in 1usize..1_000_000,
    ) {
        let src = toks.concat();
        let _ = parse(&src);
        let _ = parse_with_lines_at(&src, first_line);
    }
}
