//! The PTX front door on hostile text: whatever the bytes, `compile_module`
//! answers `Ok` or a structured `Err`, promptly — never a panic, a hang or
//! a slice inside a code point — and which `Err`, over a fixed-seed corpus
//! of mutated sources, is pinned.

use common::prop::run_cases;
use common::Rng;
use ptx::lexer::{lex, Tok};
use ptx::{compile_module, PtxError};
use sass::Arch;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::{fft, kernels};

fn parse_error(src: &str) -> (usize, String) {
    match compile_module(src, Arch::Volta) {
        Err(PtxError::Parse { line, reason }) => (line, reason),
        other => panic!("expected a parse error for {src:?}, got {other:?}"),
    }
}

#[test]
fn multi_byte_text_is_fine_inside_comments_and_strings_only() {
    let src =
        "// héllo wörld ✓\n/* 注释\n 🚀 */ .entry k()\n{\n    .loc \"ключ.cu\" 7 ;\n    exit;\n}\n";
    let toks = lex(src).unwrap();
    assert_eq!((toks[0].tok, toks[0].line), (Tok::Word(".entry"), 3));
    assert!(toks.iter().any(|t| t.tok == Tok::Str("ключ.cu") && t.line == 5));
    let m = compile_module(src, Arch::Volta).unwrap();
    assert_eq!(m.functions[0].line_table[0].file, "ключ.cu");

    // Anywhere else, the whole character is named — two, three and four
    // byte ones, at the start, inside and at the end of what would be a
    // token, and the no-break space the char-wise tokenizer used to skip.
    for (text, line, ch) in [
        ("é", 1, 'é'),
        (".entry k()\n{\n    exit;\n}\n✓", 5, '✓'),
        (".entry k🚀()\n{ exit; }", 1, '🚀'),
        (".entry k()\n{\n    mov.u32 %r1, 1é;\n}", 3, 'é'),
        (".entry\u{a0}k() { exit; }", 1, '\u{a0}'),
        ("/* ok é */ \u{2028}", 1, '\u{2028}'),
    ] {
        assert_eq!(parse_error(text), (line, format!("unexpected character `{ch}`")), "{text:?}");
    }
    // Truncated in the middle of a comment or string: unterminated, at the
    // line it opened on.
    assert_eq!(parse_error("\n/* é"), (2, "unterminated block comment".into()));
    assert_eq!(parse_error("\n\n.entry k() { .loc \"é\n"), (3, "unterminated string".into()));
}

#[test]
fn a_four_billion_register_range_is_refused_at_once() {
    let started = Instant::now();
    let (line, reason) =
        parse_error(".entry k()\n{\n    .reg .u32 %r<4000000000>;\n    exit;\n}\n");
    assert_eq!(line, 3);
    assert!(reason.contains("1048576 registers"), "{reason}");
    // A range up to the cap costs nothing either, declared or compiled.
    let big =
        ".entry k()\n{\n    .reg .u32 %r<1048576>;\n    mov.u32 %r1048575, 1;\n    exit;\n}\n";
    assert_eq!(compile_module(big, Arch::Volta).unwrap().functions.len(), 1);
    assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
}

/// The sources the mutations start from: every kernel shape the workloads
/// generate, a device function, a tool function and a module of several.
fn seeds() -> Vec<String> {
    let mut seeds = vec![
        kernels::stencil5("k"),
        kernels::trig_map("k", 2),
        kernels::axpby("k"),
        kernels::rng_hist("k", 3),
        kernels::spmv_csr("k"),
        kernels::md_force("k"),
        kernels::lbm_stream("k", 4),
        kernels::reduce_sum("k"),
        kernels::line_sweep("k"),
        kernels::transpose_naive("k"),
        kernels::gather("k"),
        fft::wfft_kernel_ptx(),
        fft::wfft_emu_function_ptx(),
        accel::cublas::ptx_source(),
    ];
    seeds.extend(nvbit_tools::TOOL_PTX.iter().map(|(_, s)| s.to_string()));
    seeds.push((0..6).map(|v| kernels::short_unique(&format!("u{v}"), v * 11)).collect());
    seeds
}

/// Tokens that steer the parser somewhere a workload never goes.
const SPLICES: [&str; 24] = [
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    ";",
    ":",
    ",",
    "@",
    "!",
    "-",
    "\"",
    "/*",
    "//",
    ".reg .u32 %r<4294967295>;",
    ".shared .align 4 .b8 s[4294967295];",
    "[%rd1+-2147483648]",
    "0x8000000000000000",
    "99999999999999999999",
    "call (%r1), f, (%r1, %r2);",
    "é",
];

/// Literals at and past the edges of the conversions the parser checks.
const NUMBERS: [&str; 10] = [
    "0",
    "-1",
    "255",
    "65535",
    "2147483647",
    "-2147483648",
    "4294967295",
    "4294967296",
    "0x8000000000000000",
    "99999999999999999999",
];

/// The byte ranges of the words of `text` that start with one of `lead`.
fn words(text: &[u8], lead: impl Fn(u8) -> bool) -> Vec<std::ops::Range<usize>> {
    let word = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'%' | b'_' | b'$' | b'.');
    let mut found = Vec::new();
    let mut at = 0;
    while at < text.len() {
        let len = text[at..].iter().take_while(|&&b| word(b)).count();
        if len > 0 && lead(text[at]) {
            found.push(at..at + len);
        }
        at += len.max(1);
    }
    found
}

/// One mutation of `text`, on bytes: what comes out need not be UTF-8.
/// Most keep the token structure (a register, literal or line traded for
/// another) so the backend sees them too; the rest do not.
fn mutate(rng: &mut Rng, text: &mut Vec<u8>, seeds: &[String]) {
    let at = rng.index(text.len() + 1);
    let line_at = |text: &[u8], at: usize| {
        let start = text[..at].iter().rposition(|&b| b == b'\n').map_or(0, |k| k + 1);
        start..text[at..].iter().position(|&b| b == b'\n').map_or(text.len(), |k| at + k + 1)
    };
    match if rng.index(10) < 3 { rng.index(5) } else { 5 + rng.index(5) } {
        0 if !text.is_empty() => {
            let at = rng.index(text.len());
            text[at] = rng.next_u32() as u8;
        }
        1 => text.truncate(at),
        2 => {
            // A run of tokens from some source, spliced in.
            let donor = rng.choose(seeds).as_bytes();
            let from = rng.index(donor.len());
            let len = rng.index(40).min(donor.len() - from);
            text.splice(at..at, donor[from..from + len].iter().copied());
        }
        3 => {
            text.splice(at..at, rng.choose(&SPLICES).bytes());
        }
        4 => {
            let len = rng.index(30).min(text.len() - at);
            text.drain(at..at + len);
        }
        5 => {
            // The same line many times over (labels and declarations repeat).
            let line = text[line_at(text, at)].to_vec();
            for _ in 0..rng.index(8) {
                text.splice(at..at, line.iter().copied());
            }
        }
        6 => {
            text.drain(line_at(text, at));
        }
        7 => {
            // A line moved somewhere else (a use before its declaration, a
            // label after its branch).
            let line: Vec<u8> = text.drain(line_at(text, at)).collect();
            let to = line_at(text, rng.index(text.len() + 1)).start;
            text.splice(to..to, line);
        }
        8 => {
            // One register, label or opcode traded for another of the source.
            let names = words(text, |b| b == b'%' || b.is_ascii_alphabetic());
            if !names.is_empty() {
                let other = text[rng.choose(&names).clone()].to_vec();
                text.splice(rng.choose(&names).clone(), other);
            }
        }
        _ => {
            let numbers = words(text, |b| b.is_ascii_digit());
            if !numbers.is_empty() {
                text.splice(rng.choose(&numbers).clone(), rng.choose(&NUMBERS).bytes());
            }
        }
    }
}

#[test]
fn mutated_sources_compile_or_fail_cleanly_within_the_deadline() {
    // Tier-1's debug build checks every arithmetic overflow on the way;
    // `ci.sh` runs the release build, against the tighter deadline.
    let cases = 20_000;
    let deadline = Duration::from_secs(if cfg!(debug_assertions) { 20 } else { 2 });
    let seeds = seeds();

    // The compiler runs on a worker so a hang is a failed case, not a hung
    // test; `run_cases` catches a panic in the body and prints the seed.
    let (to_worker, work) = mpsc::channel::<String>();
    let (to_test, done) = mpsc::channel::<Result<&'static str, String>>();
    let worker = std::thread::spawn(move || {
        for src in work {
            let outcome = std::panic::catch_unwind(|| {
                let arch = if src.len() % 2 == 0 { Arch::Volta } else { Arch::Pascal };
                match compile_module(&src, arch) {
                    Ok(_) => "ok",
                    Err(PtxError::Parse { line, .. }) => {
                        assert!(line <= src.lines().count() + 1, "line {line} is past the source");
                        "parse"
                    }
                    Err(PtxError::Interp { .. }) => panic!("the compiler does not interpret"),
                    Err(_) => "compile",
                }
            });
            let _ = to_test.send(outcome.map_err(|_| src));
        }
    });

    let mut tally = std::collections::BTreeMap::new();
    run_cases("hostile_ptx", cases, |rng| {
        let mut text = rng.choose(&seeds).clone().into_bytes();
        for _ in 0..1 + rng.index(4) {
            mutate(rng, &mut text, &seeds);
        }
        to_worker.send(String::from_utf8_lossy(&text).into_owned()).unwrap();
        match done.recv_timeout(deadline) {
            Ok(Ok(kind)) => *tally.entry(kind).or_insert(0u32) += 1,
            Ok(Err(src)) => panic!("compile_module panicked on:\n{src}"),
            Err(_) => panic!("compile_module missed its {deadline:?} deadline"),
        }
    });
    drop(to_worker);
    worker.join().unwrap();
    println!("\n  hostile PTX, {cases} cases: {tally:?}");
    // The mutations are not all fatal, and not all harmless (a run narrowed
    // by `NVBIT_PROP_SEED` / `NVBIT_PROP_CASES` is too small to say).
    let total: u32 = tally.values().sum();
    for (kind, share) in [("ok", 100), ("parse", 10), ("compile", 100)] {
        let n = tally.get(kind).copied().unwrap_or(0);
        assert!(total < 1000 || n > total / share, "{kind}: {tally:?}");
    }
}

/// Cases in the diagnostics pin, and the seed of its one stream.
const DIAG_CASES: usize = 4_000;
const DIAG_SEED: u64 = 0x0d1a_9505_7c5e_0001;

/// FNV-1a over every case's outcome, recorded at the commit before the
/// front end read its tokens through a cursor.
const DIAG_PIN: u64 = 0x71c7_6fd9_20b2_38e1;

/// Which error the front end reports is part of its contract: over
/// `DIAG_CASES` mutated sources, each outcome's variant and text (a parse
/// error's line and reason; the function and reason of the others) hash to
/// the pinned value.
#[test]
fn the_mutated_corpus_reports_the_pinned_diagnostics() {
    let seeds = seeds();
    let mut rng = Rng::seed_from_u64(DIAG_SEED);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fnv = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut tally = std::collections::BTreeMap::new();
    for _ in 0..DIAG_CASES {
        let mut text = rng.choose(&seeds).clone().into_bytes();
        for _ in 0..1 + rng.index(4) {
            mutate(&mut rng, &mut text, &seeds);
        }
        let src = String::from_utf8_lossy(&text);
        let (variant, text) = match compile_module(&src, Arch::Volta) {
            Ok(_) => ("ok", String::new()),
            Err(e) => {
                let variant = match e {
                    PtxError::Parse { .. } => "parse",
                    PtxError::Semantic { .. } => "semantic",
                    PtxError::OutOfRegisters { .. } => "registers",
                    PtxError::Encode { .. } => "encode",
                    PtxError::Interp { .. } => "interp",
                };
                (variant, e.to_string())
            }
        };
        *tally.entry(variant).or_insert(0u32) += 1;
        for part in [variant, &text] {
            fnv(&(part.len() as u64).to_le_bytes());
            fnv(part.as_bytes());
        }
    }
    println!("\n  diagnostics pin, {DIAG_CASES} cases: {tally:?}");
    assert_eq!(h, DIAG_PIN, "recorded {h:#018x}");
}
