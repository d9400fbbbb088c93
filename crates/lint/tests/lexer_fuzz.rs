//! Lexer hardening: a seeded-LCG property test composing the atoms that
//! historically mis-lex (raw strings with `#` fences, nested block
//! comments, lifetimes vs char literals, floats vs `..` ranges, trailing
//! -dot floats) plus mutation with broken fragments.
//!
//! Invariants:
//! * `lex` never panics — every input returns `Ok` or a positioned `Err`;
//! * lexing is deterministic — the same input twice gives identical output;
//! * compositions of *valid* atoms always lex `Ok`, with token lines
//!   nondecreasing and within the line count of the input;
//! * string/char/comment contents never leak tokens: an atom body
//!   containing `zzmarker` must not surface it as an identifier.

use dblayout_lint::lexer::{lex, TokKind};

/// Deterministic LCG (Numerical Recipes constants) — no external crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[(self.next() as usize) % items.len()]
    }
}

/// Atoms that must always lex. Several contain `zzmarker` inside literal
/// or comment bodies, where it must stay invisible to the token stream.
const VALID_ATOMS: &[&str] = &[
    "fn f() {}",
    "let x = 1.;",
    "let y = 1.5e-3;",
    "let z = 0xfe_u32;",
    "for i in 0..10 {}",
    "for i in 0..=n {}",
    "let r = 1..2;",
    "let f = 1.0..2.0;",
    "'a",
    "&'static str",
    "let c = 'x';",
    "let nl = '\\n';",
    "let q = '\\'';",
    "let s = \"zzmarker\";",
    "let e = \"esc \\\" quote\";",
    "let r0 = r\"zzmarker\";",
    "let r1 = r#\"has \" inside zzmarker\"#;",
    "let r2 = r##\"fence \"# inside\"##;",
    "// line comment zzmarker",
    "/* block zzmarker */",
    "/* outer /* nested zzmarker */ still comment */",
    "let b = b\"bytes\";",
    "let bc = b'x';",
    "x == y;",
    "x != y;",
    "a::b::c();",
    "m.iter().map(|v| v + 1);",
    "#[cfg(test)]",
    "impl<'a, T> Tr<'a> for T {}",
    "let t = (1, 'b', \"c\");",
];

/// Fragments that may or may not terminate — the lexer must return a
/// clean `Err`, never panic, when they don't.
const ROUGH_ATOMS: &[&str] = &[
    "\"unterminated",
    "r#\"unterminated",
    "/* unterminated",
    "/* outer /* deeper",
    "'",
    "b\"",
    "r####",
    "\\",
    "1.2.3",
    "0b",
    "\u{0}",
    "é∂ß",
];

fn compose(rng: &mut Lcg, atoms: &[&str], n: usize) -> String {
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(rng.pick(atoms));
        out.push(if rng.next() % 3 == 0 { ' ' } else { '\n' });
    }
    out
}

#[test]
fn valid_compositions_always_lex_and_stay_in_bounds() {
    let mut rng = Lcg(0xdb1a_404d);
    for round in 0..200 {
        let src = compose(&mut rng, VALID_ATOMS, 1 + (round % 24));
        let out = lex(&src).unwrap_or_else(|e| panic!("round {round}: {e:?}\n---\n{src}"));
        let line_count = src.lines().count() as u32 + 1;
        let mut last = 0u32;
        for t in &out.toks {
            assert!(t.line >= last, "token lines nondecreasing\n{src}");
            assert!(t.line <= line_count, "token line within input\n{src}");
            last = t.line;
        }
        // Literal and comment bodies never leak identifiers.
        assert!(
            !out.toks
                .iter()
                .any(|t| matches!(&t.kind, TokKind::Ident(s) if s.contains("zzmarker"))),
            "marker escaped a literal/comment body\n---\n{src}"
        );
    }
}

#[test]
fn mutated_compositions_never_panic_and_are_deterministic() {
    let mut rng = Lcg(0x5eed_cafe);
    let all: Vec<&str> = VALID_ATOMS.iter().chain(ROUGH_ATOMS).copied().collect();
    for round in 0..400 {
        let src = compose(&mut rng, &all, 1 + (round % 16));
        let a = lex(&src);
        let b = lex(&src);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.toks, y.toks, "deterministic tokens\n{src}");
                assert_eq!(x.comments, y.comments, "deterministic comments\n{src}");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "deterministic errors\n{src}"),
            _ => panic!("nondeterministic Ok/Err for\n{src}"),
        }
    }
}

#[test]
fn tricky_singletons() {
    // Trailing-dot float: one Float token, not Int + Punct (the range
    // lexer must not steal the dot).
    let out = lex("let x = 1.;").unwrap();
    assert!(
        out.toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Float(f) if f == "1.")),
        "{:?}",
        out.toks
    );
    // `1..2` is Int, Punct(..), Int — the dot-dot must win over the float.
    let out = lex("1..2").unwrap();
    let kinds: Vec<String> = out.toks.iter().map(|t| format!("{:?}", t.kind)).collect();
    assert!(
        kinds
            .iter()
            .any(|k| k.contains("Punct") && k.contains("\"..\"")),
        "{kinds:?}"
    );
    // Lifetime vs char: `'a,` is a lifetime; `'a'` is a char literal.
    let out = lex("f::<'a>(x); let c = 'a';").unwrap();
    assert!(out
        .toks
        .iter()
        .any(|t| matches!(&t.kind, TokKind::Lifetime(l) if l == "a")));
    assert!(out.toks.iter().any(|t| matches!(&t.kind, TokKind::Char)));
    // Nested block comments close at the matching fence.
    let out = lex("/* a /* b */ c */ fn f() {}").unwrap();
    assert!(out
        .toks
        .iter()
        .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "fn")));
}
