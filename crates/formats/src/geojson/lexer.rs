//! The speculative GeoJSON lexer (pipeline stage 1 of Fig. 6).
//!
//! A three-state byte DFA (outside string / inside string / escape)
//! emits structural tokens only when *outside* strings, which is the
//! whole difficulty of splitting JSON at arbitrary offsets: a block may
//! begin inside a string literal, so the fully-associative execution
//! speculates from all three states (§3.3). The engine runs the DFA
//! ([`lexer`]) with bracket-counting actions only ([`super::fat`]);
//! the token tapes of [`lex_block`] and [`lex_known`] are the
//! reference oracle.

use atgis_transducer::dfa::{ByteDfa, DfaBuilder};
use atgis_transducer::DfaFragment;
use std::sync::OnceLock;

/// Lexer state: outside any string.
pub const STATE_OUT: u8 = 0;
/// Lexer state: inside a string literal.
pub const STATE_STR: u8 = 1;
/// Lexer state: inside a string, after a backslash.
pub const STATE_ESC: u8 = 2;

/// The full speculation set for arbitrary splits.
pub const ALL_STATES: [u8; 3] = [STATE_OUT, STATE_STR, STATE_ESC];

/// Structural token kinds (the lexer's output alphabet Γ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TokenKind {
    /// `{`
    ObjOpen = 1,
    /// `}`
    ObjClose = 2,
    /// `[`
    ArrOpen = 3,
    /// `]`
    ArrClose = 4,
    /// `,`
    Comma = 5,
    /// `:`
    Colon = 6,
    /// Opening `"` of a string literal.
    StrStart = 7,
    /// Closing `"` of a string literal.
    StrEnd = 8,
}

impl TokenKind {
    fn from_action(a: u8) -> TokenKind {
        match a {
            1 => TokenKind::ObjOpen,
            2 => TokenKind::ObjClose,
            3 => TokenKind::ArrOpen,
            4 => TokenKind::ArrClose,
            5 => TokenKind::Comma,
            6 => TokenKind::Colon,
            7 => TokenKind::StrStart,
            8 => TokenKind::StrEnd,
            other => unreachable!("unknown lexer action {other}"),
        }
    }
}

/// One structural token: kind plus absolute byte position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Absolute byte offset of the token character in the input.
    pub pos: u64,
}

fn build_lexer() -> ByteDfa {
    let mut b = DfaBuilder::new(3, STATE_OUT);
    // Outside strings: structural characters emit tokens.
    b.transition(STATE_OUT, b'"', STATE_STR)
        .action(STATE_OUT, b'"', TokenKind::StrStart as u8)
        .action(STATE_OUT, b'{', TokenKind::ObjOpen as u8)
        .action(STATE_OUT, b'}', TokenKind::ObjClose as u8)
        .action(STATE_OUT, b'[', TokenKind::ArrOpen as u8)
        .action(STATE_OUT, b']', TokenKind::ArrClose as u8)
        .action(STATE_OUT, b',', TokenKind::Comma as u8)
        .action(STATE_OUT, b':', TokenKind::Colon as u8);
    // Inside strings: only the closing quote and escapes matter.
    b.transition(STATE_STR, b'"', STATE_OUT)
        .action(STATE_STR, b'"', TokenKind::StrEnd as u8)
        .transition(STATE_STR, b'\\', STATE_ESC);
    // After a backslash: consume one byte, return to in-string.
    b.default_transition(STATE_ESC, STATE_STR);
    b.build()
}

/// The lexer automaton (built once per process).
pub fn lexer() -> &'static ByteDfa {
    static LEXER: OnceLock<ByteDfa> = OnceLock::new();
    LEXER.get_or_init(build_lexer)
}

/// Lexes a block speculatively from all three states, returning the
/// per-start-state token tapes as a DFA fragment.
pub fn lex_block(bytes: &[u8], base: u64) -> DfaFragment<Vec<Token>> {
    DfaFragment::run_block(
        lexer(),
        &ALL_STATES,
        bytes,
        base,
        |tape: &mut Vec<Token>, action, pos, _byte| {
            tape.push(Token {
                kind: TokenKind::from_action(action),
                pos,
            });
        },
    )
}

/// Reference implementation of [`lex_block`]: independent
/// byte-at-a-time runs per start state ([`ByteDfa::run_bytewise`]),
/// no lane loop, no tape sharing — the seed's lexing path, kept for
/// differential tests and the structural-scan ablation benches.
pub fn lex_block_bytewise(bytes: &[u8], base: u64) -> DfaFragment<Vec<Token>> {
    let dfa = lexer();
    let entries = ALL_STATES
        .iter()
        .map(|&s| {
            let mut tape = Vec::new();
            let fin = dfa.run_bytewise(s, bytes, base, |action, pos| {
                tape.push(Token {
                    kind: TokenKind::from_action(action),
                    pos,
                });
            });
            (s, fin, tape)
        })
        .collect();
    DfaFragment::from_entries(entries)
}

/// Lexes from a known state (PAT mode / resolved replay), sequentially.
pub fn lex_known(bytes: &[u8], base: u64, start: u8) -> (u8, Vec<Token>) {
    let mut tokens = Vec::new();
    let fin = lexer().run(start, bytes, base, |action, pos| {
        tokens.push(Token {
            kind: TokenKind::from_action(action),
            pos,
        });
    });
    (fin, tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_transducer::Mergeable;
    use proptest::prelude::*;

    fn kinds(tokens: &[Token]) -> Vec<TokenKind> {
        tokens.iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_structural_characters() {
        let (fin, toks) = lex_known(br#"{"a":[1,2]}"#, 0, STATE_OUT);
        assert_eq!(fin, STATE_OUT);
        assert_eq!(
            kinds(&toks),
            vec![
                TokenKind::ObjOpen,
                TokenKind::StrStart,
                TokenKind::StrEnd,
                TokenKind::Colon,
                TokenKind::ArrOpen,
                TokenKind::Comma,
                TokenKind::ArrClose,
                TokenKind::ObjClose,
            ]
        );
    }

    #[test]
    fn string_contents_are_opaque() {
        let (_, toks) = lex_known(br#""{[,:]}"extra"#, 0, STATE_OUT);
        assert_eq!(kinds(&toks), vec![TokenKind::StrStart, TokenKind::StrEnd]);
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let (fin, toks) = lex_known(br#""a\"b""#, 0, STATE_OUT);
        assert_eq!(fin, STATE_OUT);
        assert_eq!(kinds(&toks), vec![TokenKind::StrStart, TokenKind::StrEnd]);
        assert_eq!(toks[1].pos, 5, "closing quote is the last byte");
    }

    #[test]
    fn escaped_backslash_then_quote_closes() {
        let (_, toks) = lex_known(br#""a\\"x"#, 0, STATE_OUT);
        assert_eq!(kinds(&toks), vec![TokenKind::StrStart, TokenKind::StrEnd]);
        assert_eq!(toks[1].pos, 4);
    }

    #[test]
    fn positions_are_absolute() {
        let (_, toks) = lex_known(b"[,]", 1000, STATE_OUT);
        assert_eq!(toks[0].pos, 1000);
        assert_eq!(toks[1].pos, 1001);
        assert_eq!(toks[2].pos, 1002);
    }

    #[test]
    fn speculative_fragment_resolves_to_sequential() {
        let input = br#"{"k":"v,[}","n":[1.5,2]}"#;
        let frag = lex_block(input, 0);
        let (fin_seq, toks_seq) = lex_known(input, 0, STATE_OUT);
        let (fin, toks) = frag.resolve(STATE_OUT).unwrap();
        assert_eq!(fin, fin_seq);
        assert_eq!(toks, toks_seq);
    }

    proptest! {
        #[test]
        fn split_invariance(
            input in prop::collection::vec(
                prop::sample::select(br#"{}[],:"\ab1.5"#.to_vec()), 0..200),
            cut in 0usize..200,
        ) {
            let cut = cut.min(input.len());
            let merged = lex_block(&input[..cut], 0)
                .merge(lex_block(&input[cut..], cut as u64));
            let whole = lex_block(&input, 0);
            prop_assert_eq!(merged, whole);
        }

        #[test]
        fn resolved_tokens_match_sequential(
            input in prop::collection::vec(
                prop::sample::select(br#"{}[],:"\ab"#.to_vec()), 0..150),
            nblocks in 1usize..6,
        ) {
            let chunk = input.len().div_ceil(nblocks).max(1);
            let frags: Vec<_> = input
                .chunks(chunk)
                .enumerate()
                .map(|(i, c)| lex_block(c, (i * chunk) as u64))
                .collect();
            let merged = atgis_transducer::merge::merge_tree(frags);
            let (fin_seq, toks_seq) = lex_known(&input, 0, STATE_OUT);
            if !merged.is_identity() {
                let (fin, toks) = merged.resolve(STATE_OUT).unwrap();
                prop_assert_eq!(fin, fin_seq);
                prop_assert_eq!(toks, toks_seq);
            } else {
                prop_assert!(toks_seq.is_empty());
                prop_assert_eq!(fin_seq, STATE_OUT);
            }
        }
    }
}
