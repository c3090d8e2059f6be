//! Fully-associative GeoJSON parsing over arbitrary block splits, in
//! two phases.
//!
//! **Phase 1 — state map.** A block may begin inside a string, after
//! an escape, or at any bracket depth. [`StateMap::of`] runs the lexer
//! DFA ([`super::lexer`]) from all three string states with actions
//! that only count brackets, so a block yields, per start state, its
//! final state and net depth change — no token tape. The maps compose
//! associatively ([`StateMap`] is [`Mergeable`], the relation
//! composition of §3.2), and one prefix pass from the scanned range's
//! start ([`entries`]) gives every block its exact [`Entry`].
//!
//! **Phase 2 — known-state parse.** Knowing its entry, a block lexes
//! forward only to its first *sync point* — `{ "type" : "Feature"`
//! outside strings at the feature depth — and from there walks feature
//! to feature with the PAT parser ([`super::fast`]).
//! It owns the features that start in its range; the last one may run
//! past its end, as in PAT. The feature depth is the depth of the
//! range's first sync point ([`feature_depth`]), so a Feature-shaped
//! object nested in `properties` (the §3.5 hazard) is never a
//! candidate.
//!
//! A [`BlockScan`] records the block's first sync point and what its
//! walk expects next: the next feature's start, the end of the
//! features array, a deferred error, or a step that ran into the end
//! of the *published* bytes (streaming only) and is re-run by the next
//! merge or by [`BlockScan::finish`]. A merge checks that the left
//! walk's next start is the right block's first sync point — a
//! mismatch is [`ParseError::Desync`] — and raises a block's error
//! only once its sync point is confirmed. Since every block starts
//! from its exact state, any split yields the 1-block result or a
//! structured error: a Feature-shaped foreign member outside the
//! features array desynchronises loudly instead of adding features.

use crate::feature::{MetadataFilter, RawFeature};
use crate::split::{memchr2, Block};
use crate::ParseError;
use atgis_transducer::{DfaFragment, DyckFragment, Mergeable};

use super::fast::{parse_feature_at, Scratch};
use super::lexer::{lexer, TokenKind, ALL_STATES, STATE_ESC, STATE_OUT, STATE_STR};

/// Lexer state and bracket depth at a byte offset, relative to the
/// start of the scanned range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Lexer string state ([`STATE_OUT`], [`STATE_STR`] or
    /// [`STATE_ESC`]).
    pub state: u8,
    /// Open `{`/`[` brackets minus closed ones, outside strings.
    pub depth: i32,
}

impl Entry {
    /// The start of a scanned range: outside strings, depth 0.
    pub const START: Entry = Entry {
        state: STATE_OUT,
        depth: 0,
    };
}

/// Phase 1's summary of one block: for each lexer start state, the
/// final state and the net bracket depth change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMap([(u8, i32); 3]);

const OBJ_OPEN: u8 = TokenKind::ObjOpen as u8;
const ARR_OPEN: u8 = TokenKind::ArrOpen as u8;
const OBJ_CLOSE: u8 = TokenKind::ObjClose as u8;
const ARR_CLOSE: u8 = TokenKind::ArrClose as u8;

impl StateMap {
    /// Runs the lexer over `bytes` from every start state at scan
    /// speed, counting brackets instead of recording tokens.
    pub fn of(bytes: &[u8]) -> StateMap {
        let frag = DfaFragment::<DyckFragment<()>>::run_block(
            lexer(),
            &ALL_STATES,
            bytes,
            0,
            |d, action, _, _| match action {
                OBJ_OPEN | ARR_OPEN => d.open(),
                OBJ_CLOSE | ARR_CLOSE => d.close(),
                _ => {}
            },
        );
        let mut map = StateMap::identity();
        for (start, fin, dyck) in frag.into_entries() {
            map.0[start as usize] = (fin, dyck.net);
        }
        map
    }

    /// The entry after this block, given the entry before it.
    pub fn apply(&self, entry: Entry) -> Entry {
        let (state, net) = self.0[entry.state as usize];
        Entry {
            state,
            depth: entry.depth + net,
        }
    }
}

impl Mergeable for StateMap {
    fn identity() -> Self {
        StateMap([(STATE_OUT, 0), (STATE_STR, 0), (STATE_ESC, 0)])
    }

    fn merge(self, other: Self) -> Self {
        StateMap(self.0.map(|(mid, net)| {
            let (fin, more) = other.0[mid as usize];
            (fin, net + more)
        }))
    }
}

/// The prefix pass: `entries(maps, start)[i]` is block `i`'s entry;
/// the one extra last element is the entry after the final block.
pub fn entries(maps: &[StateMap], start: Entry) -> Vec<Entry> {
    let mut out = Vec::with_capacity(maps.len() + 1);
    out.push(start);
    let mut entry = start;
    for m in maps {
        entry = m.apply(entry);
        out.push(entry);
    }
    out
}

/// Whether `at` opens a `{ "type" : "Feature"` object; `None` when
/// `input` ends before that can be decided.
fn is_sync(input: &[u8], at: usize) -> Option<bool> {
    let mut i = at;
    for lit in [&b"{"[..], b"\"type\"", b":", b"\"Feature\""] {
        i = skip_ws(input, i);
        for &want in lit {
            match input.get(i) {
                None => return None,
                Some(&b) if b == want => i += 1,
                Some(_) => return Some(false),
            }
        }
    }
    Some(true)
}

fn skip_ws(input: &[u8], mut i: usize) -> usize {
    while matches!(input.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// Where [`find_sync`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lexed {
    /// A sync point at `at`; its `{` opens at `depth`.
    Sync {
        /// Offset of the `{`.
        at: usize,
        /// Depth before the `{`.
        depth: i32,
    },
    /// No sync point before `at`, where the lexer stands at `entry`:
    /// `at` is the search bound, or — on a published prefix — a `{`
    /// whose member names run past the published end.
    Stopped {
        /// Where the search stopped.
        at: usize,
        /// Lexer state and depth at `at`.
        entry: Entry,
    },
}

/// Lexes `input[at..until)` from `entry` to the first sync point at
/// `depth` (at any depth when `None`). With `complete` false, `input`
/// is only the published prefix of the input, so an undecidable `{`
/// stops the search instead of being ruled out.
pub fn find_sync(
    input: &[u8],
    mut at: usize,
    entry: Entry,
    until: usize,
    depth: Option<i32>,
    complete: bool,
) -> Lexed {
    let Entry {
        mut state,
        depth: mut d,
    } = entry;
    let until = until.min(input.len());
    while at < until {
        match state {
            STATE_OUT => {
                match input[at] {
                    b'"' => state = STATE_STR,
                    b'{' => {
                        if depth.is_none_or(|want| want == d) {
                            match is_sync(input, at) {
                                Some(true) => return Lexed::Sync { at, depth: d },
                                None if !complete => {
                                    return Lexed::Stopped {
                                        at,
                                        entry: Entry { state, depth: d },
                                    }
                                }
                                _ => {}
                            }
                        }
                        d += 1;
                    }
                    b'[' => d += 1,
                    b'}' | b']' => d -= 1,
                    _ => {}
                }
                at += 1;
            }
            STATE_STR => match memchr2(b'"', b'\\', &input[..until], at) {
                Some(j) => {
                    state = if input[j] == b'"' {
                        STATE_OUT
                    } else {
                        STATE_ESC
                    };
                    at = j + 1;
                }
                None => at = until,
            },
            _ => {
                state = STATE_STR;
                at += 1;
            }
        }
    }
    Lexed::Stopped {
        at,
        entry: Entry { state, depth: d },
    }
}

/// The feature depth of the complete range `input[start..end)`: the
/// depth of its first sync point, or `None` when it holds no feature.
pub fn feature_depth(input: &[u8], start: usize, end: usize) -> Option<i32> {
    match find_sync(input, start, Entry::START, end, None, true) {
        Lexed::Sync { depth, .. } => Some(depth),
        Lexed::Stopped { .. } => None,
    }
}

/// What phase 2 needs besides the block.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The input (absolute offsets index it).
    pub input: &'a [u8],
    /// Depth of the features, from [`feature_depth`].
    pub depth: i32,
    /// Metadata filter pushed into the parse.
    pub filter: &'a MetadataFilter,
    /// False when `input` is only the published prefix of a stream.
    pub complete: bool,
}

/// The phase-2 fragment of one block, or of a run of merged blocks.
/// Features go to the caller's `emit` callback as they are parsed; the
/// fragment keeps only what the next merge must check.
#[derive(Debug)]
pub struct BlockScan {
    /// End of the covered bytes.
    end: usize,
    scan: Scan,
}

#[derive(Debug)]
enum Scan {
    /// No sync point in the covered bytes.
    Empty,
    /// The search for the first sync point stopped at the published
    /// end.
    Searching(Step),
    /// Synced at `first`; `tail` is what the walk expects next.
    Synced { first: usize, tail: Tail },
}

#[derive(Debug)]
enum Tail {
    /// The next feature starts here, at or past the covered end.
    Next(usize),
    /// The features array closed, and no sync point follows it.
    End,
    /// A step stopped at the published end: re-run it with more bytes.
    Pending(Step),
    /// A parse error, raised once the sync point is confirmed.
    Failed(ParseError),
}

/// A resumable unit of phase-2 work over `[at, until)`.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: StepKind,
    at: usize,
    entry: Entry,
    until: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// Looking for the first sync point.
    Search,
    /// Walking features from the one at `at`.
    Walk,
    /// Checking that no sync point follows the closed features array.
    AfterEnd,
}

type Emit<'e> = &'e mut dyn FnMut(RawFeature);

impl Step {
    /// Runs a [`StepKind::Search`] step: find the first sync point,
    /// then walk from it.
    fn search(self, cx: &Ctx<'_>, emit: Emit<'_>) -> Scan {
        let depth = Some(cx.depth);
        match find_sync(
            cx.input,
            self.at,
            self.entry,
            self.until,
            depth,
            cx.complete,
        ) {
            Lexed::Sync { at, .. } => Scan::Synced {
                first: at,
                tail: walk(cx, at, self.until, emit),
            },
            Lexed::Stopped { at, entry } if at < self.until => {
                Scan::Searching(Step { at, entry, ..self })
            }
            Lexed::Stopped { .. } => Scan::Empty,
        }
    }

    /// Re-runs a step of a synced scan.
    fn resume(self, cx: &Ctx<'_>, emit: Emit<'_>) -> Tail {
        match self.kind {
            StepKind::Walk => walk(cx, self.at, self.until, emit),
            StepKind::AfterEnd => after_end(cx, self.at, self.entry, self.until),
            StepKind::Search => unreachable!("a synced scan has stopped searching"),
        }
    }
}

fn walk_step(cx: &Ctx<'_>, at: usize, until: usize) -> Tail {
    Tail::Pending(Step {
        kind: StepKind::Walk,
        at,
        entry: Entry {
            state: STATE_OUT,
            depth: cx.depth,
        },
        until,
    })
}

/// Walks the features array from the feature at `at`, emitting every
/// feature that starts before `until`.
fn walk(cx: &Ctx<'_>, mut at: usize, until: usize, emit: Emit<'_>) -> Tail {
    let input = cx.input;
    let mut scratch = Scratch::default();
    loop {
        match is_sync(input, at) {
            Some(true) => {}
            None if !cx.complete => return walk_step(cx, at, until),
            _ => return Tail::Failed(ParseError::Desync { offset: at as u64 }),
        }
        let (parsed, stop) = parse_feature_at(input, at, cx.filter, &mut scratch);
        let feature = match parsed {
            Ok(f) => f,
            Err(_) if !cx.complete && stop >= input.len() => return walk_step(cx, at, until),
            Err(e) => return Tail::Failed(e),
        };
        let sep = skip_ws(input, stop);
        let next = match input.get(sep) {
            Some(b',') => skip_ws(input, sep + 1),
            Some(b']') => {
                if let Some(f) = feature {
                    emit(f);
                }
                let entry = Entry {
                    state: STATE_OUT,
                    depth: cx.depth - 1,
                };
                return after_end(cx, sep + 1, entry, until);
            }
            None if !cx.complete => return walk_step(cx, at, until),
            None => {
                let e = ParseError::syntax(sep as u64, "expected ',' or ']' after a feature");
                return Tail::Failed(e);
            }
            // The object was not an element of the features array (a
            // Feature-shaped member value, §3.5).
            Some(_) => return Tail::Failed(ParseError::Desync { offset: sep as u64 }),
        };
        if next >= input.len() && !cx.complete {
            return walk_step(cx, at, until);
        }
        if let Some(f) = feature {
            emit(f);
        }
        if next >= until {
            return Tail::Next(next);
        }
        at = next;
    }
}

/// Checks `[at, until)` after the features array closed: a sync point
/// there means the array was not the collection's features.
fn after_end(cx: &Ctx<'_>, at: usize, entry: Entry, until: usize) -> Tail {
    match find_sync(cx.input, at, entry, until, Some(cx.depth), cx.complete) {
        Lexed::Sync { at, .. } => Tail::Failed(ParseError::Desync { offset: at as u64 }),
        Lexed::Stopped { at, entry } if at < until => Tail::Pending(Step {
            kind: StepKind::AfterEnd,
            at,
            entry,
            until,
        }),
        Lexed::Stopped { .. } => Tail::End,
    }
}

impl Scan {
    /// Re-runs a pending step against the (possibly longer) input.
    fn settle(self, cx: &Ctx<'_>, emit: Emit<'_>) -> Scan {
        match self {
            Scan::Searching(step) => step.search(cx, emit),
            Scan::Synced {
                first,
                tail: Tail::Pending(step),
            } => Scan::Synced {
                first,
                tail: step.resume(cx, emit),
            },
            s => s,
        }
    }

    /// The step still waiting for bytes, if any.
    fn pending(&mut self) -> Option<&mut Step> {
        match self {
            Scan::Searching(step)
            | Scan::Synced {
                tail: Tail::Pending(step),
                ..
            } => Some(step),
            _ => None,
        }
    }
}

impl BlockScan {
    /// Phase 2 for one block whose lexer stands at `entry` at its
    /// first byte: every feature that starts in the block goes to
    /// `emit`, in input order.
    pub fn run(cx: &Ctx<'_>, block: Block, entry: Entry, emit: Emit<'_>) -> BlockScan {
        let step = Step {
            kind: StepKind::Search,
            at: block.start,
            entry,
            until: block.end,
        };
        BlockScan {
            end: block.end,
            scan: step.search(cx, emit),
        }
    }

    /// The ⊗ merge; `self` covers the bytes just before `right`.
    /// Features the merge completes go to `emit`. The flag is true when
    /// the result includes `right`'s features, so the caller appends
    /// `right`'s aggregate; when false, `right`'s range is re-walked
    /// later (a left step still short of bytes) or an error is
    /// pending, and its aggregate must be dropped.
    pub fn merge(
        self,
        right: BlockScan,
        cx: &Ctx<'_>,
        emit: Emit<'_>,
    ) -> Result<(BlockScan, bool), ParseError> {
        let end = right.end;
        let mut left = self.scan.settle(cx, emit);
        if let Some(step) = left.pending() {
            step.until = end;
            return Ok((BlockScan { end, scan: left }, false));
        }
        let (scan, took_right) = match left {
            Scan::Empty => (right.scan, true),
            Scan::Synced { first, tail } => {
                let (tail, took_right) = link(tail, right, cx)?;
                (Scan::Synced { first, tail }, took_right)
            }
            Scan::Searching(_) => unreachable!("settled above"),
        };
        Ok((BlockScan { end, scan }, took_right))
    }

    /// Resolves the fragment of a whole range against the complete
    /// input: re-runs a pending step and raises a deferred error.
    pub fn finish(self, cx: &Ctx<'_>, emit: Emit<'_>) -> Result<(), ParseError> {
        debug_assert!(cx.complete, "finish needs the whole input");
        match self.scan.settle(cx, emit) {
            Scan::Empty
            | Scan::Synced {
                tail: Tail::Next(_) | Tail::End,
                ..
            } => Ok(()),
            Scan::Synced {
                tail: Tail::Failed(e),
                ..
            } => Err(e),
            _ => Err(ParseError::syntax(
                self.end as u64,
                "unexpected end of input",
            )),
        }
    }
}

/// Joins a settled left tail to the block after it.
fn link(tail: Tail, right: BlockScan, cx: &Ctx<'_>) -> Result<(Tail, bool), ParseError> {
    let desync = |at: usize| ParseError::Desync { offset: at as u64 };
    Ok(match (tail, right.scan) {
        (Tail::Failed(e), _) => (Tail::Failed(e), false),
        (Tail::Next(x), Scan::Empty) if x >= right.end => (Tail::Next(x), true),
        (Tail::Next(x), Scan::Searching(step)) if x == step.at => {
            (walk_step(cx, x, step.until), true)
        }
        (Tail::Next(x), Scan::Synced { first, tail }) if x == first => match tail {
            Tail::Failed(e) => return Err(e),
            t => (t, true),
        },
        (Tail::Next(x), _) => return Err(desync(x)),
        (Tail::End, Scan::Empty) => (Tail::End, true),
        (Tail::End, Scan::Searching(step)) => (
            Tail::Pending(Step {
                kind: StepKind::AfterEnd,
                ..step
            }),
            true,
        ),
        (Tail::End, Scan::Synced { first, .. }) => return Err(desync(first)),
        (Tail::Pending(_), _) => unreachable!("settled before linking"),
    })
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex_known;
    use super::*;
    use crate::split::fixed_blocks;
    use proptest::prelude::*;

    const DOC: &str = super::super::tests::SAMPLE;

    fn parse_with_blocks(doc: &str, n: usize) -> Vec<RawFeature> {
        super::super::parse_fat(doc.as_bytes(), &MetadataFilter::All, n).unwrap()
    }

    #[test]
    fn one_block_equals_many_blocks() {
        let base = parse_with_blocks(DOC, 1);
        assert_eq!(base.len(), 5);
        for n in [2, 3, 5, 8, 13, 21, 34, 55] {
            assert_eq!(parse_with_blocks(DOC, n), base, "blocks = {n}");
        }
    }

    #[test]
    fn block_boundary_inside_string_is_handled() {
        // Force many tiny blocks so boundaries land inside the
        // property strings containing structural characters.
        let doc = r#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"properties":{"evil":"}],{[\":\" oh no"}}]}"#;
        let whole = parse_with_blocks(doc, 1);
        assert_eq!(whole.len(), 1);
        for n in 2..doc.len().min(40) {
            assert_eq!(parse_with_blocks(doc, n), whole, "blocks = {n}");
        }
    }

    #[test]
    fn block_boundary_inside_number_is_handled() {
        let doc = r#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[123.456789,-98.7654321]},"id":42,"properties":{}}]}"#;
        let whole = parse_with_blocks(doc, 1);
        for n in 2..40 {
            let got = parse_with_blocks(doc, n);
            assert_eq!(got, whole, "blocks = {n}");
        }
    }

    #[test]
    fn sync_pattern_detection() {
        assert_eq!(is_sync(br#"{"type":"Feature"}"#, 0), Some(true));
        assert_eq!(is_sync(b"{ \"type\" :\n \"Feature\" }", 0), Some(true));
        assert_eq!(is_sync(br#"{"type":"FeatureCollection"}"#, 0), Some(false));
        assert_eq!(is_sync(br#"{"id":1}"#, 0), Some(false));
        assert_eq!(is_sync(br#"{"type":"Feat"#, 0), None);
    }

    #[test]
    fn desync_reported_for_marker_in_metadata_object() {
        // A nested properties object shaped like a Feature sits deeper
        // than the feature depth, so it is never a sync point: every
        // split parses the one real feature.
        let doc = r#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[0.0,0.0]},"id":1,"properties":{"trap":{"type":"Feature","x":1}}}]}"#;
        for n in 1..doc.len() {
            assert_eq!(parse_with_blocks(doc, n).len(), 1, "blocks = {n}");
        }
    }

    #[test]
    fn feature_depth_is_the_first_sync_points_depth() {
        assert_eq!(feature_depth(DOC.as_bytes(), 0, DOC.len()), Some(2));
        let bare = br#"{"type":"Feature","geometry":null}"#;
        assert_eq!(feature_depth(bare, 0, bare.len()), Some(0));
        let empty = br#"{"type":"FeatureCollection","features":[]}"#;
        assert_eq!(feature_depth(empty, 0, empty.len()), None);
    }

    /// Phase 2 over a published prefix, then merged and finished
    /// against the whole input — the streaming shape.
    fn parse_streamed(
        input: &[u8],
        cut: usize,
        blocks: usize,
    ) -> Result<Vec<RawFeature>, ParseError> {
        let filter = MetadataFilter::All;
        let depth = feature_depth(input, 0, input.len()).unwrap();
        let early = Ctx {
            input: &input[..cut],
            depth,
            filter: &filter,
            complete: false,
        };
        let late = Ctx {
            input,
            complete: true,
            ..early
        };
        let mut out = Vec::new();
        let mut merged: Option<BlockScan> = None;
        let mut entry = Entry::START;
        for (cx, lo, hi) in [(&early, 0, cut), (&late, cut, input.len())] {
            for b in fixed_blocks(hi - lo, blocks) {
                let b = Block {
                    index: 0,
                    start: b.start + lo,
                    end: b.end + lo,
                };
                let mut features = Vec::new();
                let scan = BlockScan::run(cx, b, entry, &mut |f| features.push(f));
                entry = StateMap::of(b.slice(input)).apply(entry);
                merged = Some(match merged {
                    None => {
                        out = features;
                        scan
                    }
                    Some(left) => {
                        let (m, took) = left.merge(scan, cx, &mut |f| out.push(f))?;
                        if took {
                            out.append(&mut features);
                        }
                        m
                    }
                });
            }
        }
        merged.unwrap().finish(&late, &mut |f| out.push(f))?;
        Ok(out)
    }

    #[test]
    fn steps_cut_at_the_published_end_resume_in_later_merges() {
        let input = DOC.as_bytes();
        let whole = parse_with_blocks(DOC, 1);
        for cut in 1..input.len() {
            for blocks in [1, 3] {
                assert_eq!(
                    parse_streamed(input, cut, blocks).unwrap(),
                    whole,
                    "cut = {cut}, blocks = {blocks}"
                );
            }
        }
    }

    /// State and bracket depth of a sequential lexer run at `at`.
    fn sequential_entry(input: &[u8], at: usize) -> Entry {
        let (state, tokens) = lex_known(&input[..at], 0, STATE_OUT);
        let depth = tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::ObjOpen | TokenKind::ArrOpen => 1,
                TokenKind::ObjClose | TokenKind::ArrClose => -1,
                _ => 0,
            })
            .sum();
        Entry { state, depth }
    }

    fn cut_maps(input: &[u8], cuts: &[usize]) -> (Vec<usize>, Vec<StateMap>) {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
        bounds.extend([0, input.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let maps = bounds
            .windows(2)
            .map(|w| StateMap::of(&input[w[0]..w[1]]))
            .collect();
        (bounds, maps)
    }

    fn alphabet() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(prop::sample::select(br#"{}[],:"\ab1.5 "#.to_vec()), 0..200)
    }

    proptest! {
        #[test]
        fn composed_entries_match_a_sequential_lexer(
            input in alphabet(),
            cuts in prop::collection::vec(0usize..201, 0..8),
        ) {
            let (bounds, maps) = cut_maps(&input, &cuts);
            let entries = entries(&maps, Entry::START);
            for (&at, &entry) in bounds.iter().zip(&entries) {
                prop_assert_eq!(entry, sequential_entry(&input, at), "at {}", at);
            }
        }

        #[test]
        fn composition_is_associative_and_agrees_with_merge_tree(
            input in alphabet(),
            cuts in prop::collection::vec(0usize..201, 0..8),
        ) {
            let (_, maps) = cut_maps(&input, &cuts);
            let whole = StateMap::of(&input);
            let left_fold = maps.iter().fold(StateMap::identity(), |a, &m| a.merge(m));
            let right_fold = maps.iter().rev().fold(StateMap::identity(), |a, &m| m.merge(a));
            prop_assert_eq!(left_fold, whole);
            prop_assert_eq!(right_fold, whole);
            prop_assert_eq!(atgis_transducer::merge::merge_tree(maps), whole);
        }
    }
}
