//! Hostile source text ends typed: seeded mutations of corpus sources go
//! through the whole front end (`Compiled::from_source`, `emit_c`) and,
//! where the mutant type-checks and is a new program, through the checker
//! — plain and with `--por --symmetry`, truncated at 3 000 states. Every
//! stage may refuse with its typed error; none may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use p_core::ast::{print_program, Draws};
use p_core::{corpus, CheckerOptions, Compiled};

const SOURCES: [&str; 6] = [
    corpus::PING_PONG_SRC,
    corpus::ELEVATOR_SRC,
    corpus::SWITCH_LED_SRC,
    corpus::GERMAN_SRC,
    corpus::USB_HSM_SRC,
    corpus::LOSSY_LINK_SRC,
];

/// Mutants per run: about 8 s of a debug build on the 2-core box.
const MUTANTS: usize = 4_000;

/// Splits `source` into tokens — a word (identifier or number) or one
/// other character, each with the white space that follows it — so that a
/// mutation moves whole tokens and a useful share of mutants still parses.
fn tokens(source: &str) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let (mut start, mut last) = (0, ' ');
    for (at, c) in source.char_indices() {
        if at > start && !c.is_whitespace() && !(word(last) && word(c)) {
            out.push(&source[start..at]);
            start = at;
        }
        last = c;
    }
    out.push(&source[start..]);
    out
}

const KINDS: [&str; 5] = ["delete", "duplicate", "insert", "rotate", "truncate"];

/// `(lines, kind, at, len, pick)`: mutation `kind` of a span of at most 12
/// pieces — whole lines if `lines`, tokens otherwise — starting at a piece
/// chosen by `at`; `pick` selects the inserted piece or the rotation.
type Mutation = (bool, usize, usize, usize, usize);

fn mutate(source: &str, (lines, kind, at, len, pick): Mutation) -> String {
    let mut p = match lines {
        true => source.split_inclusive('\n').collect(),
        false => tokens(source),
    };
    let from = at % p.len();
    let to = (from + 1 + len % 12).min(p.len());
    match KINDS[kind] {
        "delete" => drop(p.drain(from..to)),
        "duplicate" => drop(p.splice(to..to, p[from..to].to_vec())),
        "insert" => p.insert(from, p[pick % p.len()]),
        "rotate" => p[from..to].rotate_left(pick % (to - from)),
        _ => p.truncate(from),
    }
    p.concat()
}

#[test]
fn mutated_corpus_sources_never_panic() {
    let originals = SOURCES.map(|source| {
        assert_eq!(tokens(source).concat(), source);
        print_program(Compiled::from_source(source).unwrap().program())
    });
    let (mut well_typed, mut new_programs) = (0, 0);
    for seed in 0..MUTANTS as u64 {
        let d = &mut Draws::new(seed);
        let which = d.below(SOURCES.len());
        let (lines, kind) = (d.one_in(2), d.below(KINDS.len()));
        let mutation = (
            lines,
            kind,
            d.next() as usize,
            d.next() as usize,
            d.next() as usize,
        );
        let mutant = mutate(SOURCES[which], mutation);
        // `None`: refused by the front end. `Some(false)`: printed back,
        // still the program it came from (a mutated comment), not searched
        // again. `Some(true)`: a new program, searched twice.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let compiled = Compiled::from_source(&mutant).ok()?;
            let _ = compiled.emit_c();
            if print_program(compiled.program()) == originals[which] {
                return Some(false);
            }
            for reduced in [false, true] {
                let options = CheckerOptions {
                    max_states: 3_000,
                    por: reduced,
                    symmetry: reduced,
                    ..CheckerOptions::default()
                };
                let verifier = compiled.verifier().with_options(options);
                let _ = verifier.try_check_exhaustive();
            }
            Some(true)
        }))
        .unwrap_or_else(|_| {
            panic!("seed {seed}: source {which} panicked under {mutation:?}:\n{mutant}")
        });
        well_typed += usize::from(outcome.is_some());
        new_programs += usize::from(outcome == Some(true));
    }
    println!("{MUTANTS} mutants: {well_typed} well-typed, {new_programs} of them new programs");
    // Not vacuous: about one mutant in thirty is a new well-typed program.
    assert!(new_programs * 60 >= MUTANTS, "{new_programs} of {MUTANTS}");
}
