//! Differential property suite for the serde shim, over every derive shape
//! and std container the workspace serialises: the writer (`write_json`,
//! what `to_string` runs) against an independent reference renderer, the
//! direct typed read (`read_json`, what `from_str` runs) against the read
//! by way of a `Value`, `from_str(to_string(x)) == x`, and the reader
//! against damaged bytes.
//!
//! Every case is generated from its own fixed seed, so a failure repeats on
//! every run and prints the seed that replays it alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Number, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Cases per property: `DIFFERENTIAL_CASES`, else 400.
fn cases() -> u64 {
    std::env::var("DIFFERENTIAL_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(400)
}
const SEED_BASE: u64 = 0x5eed_0000;
/// The reader's nesting limit.
const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
struct Transparent {
    raw: i16,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i64, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Other,
    New(f64),
    Tuple(u8, Option<String>),
    Named {
        a: i32,
        #[serde(default)]
        b: Vec<u16>,
        #[serde(skip)]
        cache: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
enum Colour {
    Red,
    Green,
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Scalars {
    flag: bool,
    small: u8,
    big: u64,
    neg: i64,
    size: usize,
    single: f32,
    double: f64,
    ch: char,
    text: String,
    nothing: (),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    unit: Unit,
    id: Newtype,
    pair: Pair,
    shape: Shape,
    scalars: Scalars,
    opt: Option<Pair>,
    child: Option<Box<Record>>,
    list: Vec<Shape>,
    deque: VecDeque<i64>,
    by_name: BTreeMap<String, Shape>,
    by_id: BTreeMap<Newtype, f32>,
    by_signed: HashMap<Transparent, String>,
    by_colour: BTreeMap<Colour, bool>,
    set: BTreeSet<u8>,
    names: HashSet<String>,
    shared: Arc<[u64]>,
    label: Arc<str>,
    triple: (u8, String, f64),
    #[serde(default)]
    dflt: u32,
    #[serde(skip)]
    skipped: u32,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    maybe: Vec<u8>,
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn gen_string(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 14] =
        ["a", "Z", "7", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{1f}", "é", "\u{2028}", "😀"];
    (0..rng.gen_range(0..6)).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

/// Floats of every printed form; non-finite ones only when asked, since
/// they serialise as `null` and so cannot round-trip.
fn gen_f64(rng: &mut StdRng, finite: bool) -> f64 {
    let x = match rng.gen_range(0..8) {
        0 => rng.gen_range(-1000..1000) as f64,
        1 => 0.0,
        2 => -0.0,
        3 => f64::MAX,
        4 => 5e-324,
        5 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)],
        // Any bit pattern, NaNs and infinities included.
        _ => f64::from_bits(rng.gen::<u64>()),
    };
    if finite && !x.is_finite() {
        0.25
    } else {
        x
    }
}

/// As [`gen_f64`], among the values an `f32` holds.
fn gen_f32(rng: &mut StdRng, finite: bool) -> f32 {
    match gen_f64(rng, finite) as f32 {
        x if finite && !x.is_finite() => 0.25,
        x => x,
    }
}

fn gen_shape(rng: &mut StdRng, finite: bool) -> Shape {
    match rng.gen_range(0..5) {
        0 => Shape::Unit,
        1 => Shape::Other,
        2 => Shape::New(gen_f64(rng, finite)),
        3 => Shape::Tuple(rng.gen(), rng.gen_bool(0.5).then(|| gen_string(rng))),
        _ => Shape::Named {
            a: rng.gen_range(i32::MIN..=i32::MAX),
            b: (0..rng.gen_range(0..3)).map(|_| rng.gen()).collect(),
            cache: 0,
        },
    }
}

fn gen_u64(rng: &mut StdRng) -> u64 {
    [0, 1, u64::MAX, i64::MAX as u64 + 1, rng.gen()][rng.gen_range(0..5usize)]
}

fn gen_i64(rng: &mut StdRng) -> i64 {
    [0, -1, i64::MIN, i64::MAX, rng.gen::<u64>() as i64][rng.gen_range(0..5usize)]
}

fn gen_record(rng: &mut StdRng, finite: bool, depth: u32) -> Record {
    let n = |rng: &mut StdRng| rng.gen_range(0..4);
    Record {
        unit: Unit,
        id: Newtype(rng.gen()),
        pair: Pair(gen_i64(rng), gen_string(rng)),
        shape: gen_shape(rng, finite),
        scalars: Scalars {
            flag: rng.gen(),
            small: rng.gen(),
            big: gen_u64(rng),
            neg: gen_i64(rng),
            size: rng.gen_range(0..usize::MAX),
            single: gen_f32(rng, finite),
            double: gen_f64(rng, finite),
            ch: gen_string(rng).chars().next().unwrap_or('x'),
            text: gen_string(rng),
            nothing: (),
        },
        opt: rng.gen_bool(0.5).then(|| Pair(gen_i64(rng), gen_string(rng))),
        child: (depth < 2 && rng.gen_bool(0.4))
            .then(|| Box::new(gen_record(rng, finite, depth + 1))),
        list: (0..n(rng)).map(|_| gen_shape(rng, finite)).collect(),
        deque: (0..n(rng)).map(|_| gen_i64(rng)).collect(),
        by_name: (0..n(rng)).map(|_| (gen_string(rng), gen_shape(rng, finite))).collect(),
        by_id: (0..n(rng))
            .map(|_| (Newtype(rng.gen()), rng.gen_range(-8..8) as f32 / 4.0))
            .collect(),
        by_signed: (0..n(rng))
            .map(|_| (Transparent { raw: rng.gen_range(-300..300i16) }, gen_string(rng)))
            .collect(),
        by_colour: [(Colour::Red, rng.gen()), (Colour::Green, rng.gen())]
            .into_iter()
            .take(rng.gen_range(0..3usize))
            .collect(),
        set: (0..n(rng)).map(|_| rng.gen()).collect(),
        names: (0..n(rng)).map(|_| gen_string(rng)).collect(),
        shared: (0..n(rng)).map(|_| gen_u64(rng)).collect::<Vec<_>>().into(),
        label: gen_string(rng).into(),
        triple: (rng.gen(), gen_string(rng), gen_f64(rng, finite)),
        dflt: rng.gen(),
        skipped: 0,
        maybe: (0..rng.gen_range(0..2)).map(|_| rng.gen()).collect(),
    }
}

/// A tree of every kind of node, or (one case in four) a chain of
/// containers as deep as the reader allows around a scalar.
fn gen_value(rng: &mut StdRng, depth: usize) -> Value {
    if depth == 0 && rng.gen_bool(0.25) {
        return (0..rng.gen_range(120..=MAX_DEPTH)).fold(Value::Null, |inner, _| {
            match rng.gen_bool(0.5) {
                true => Value::Array(vec![inner]),
                false => Value::Object(vec![(gen_string(rng), inner)]),
            }
        });
    }
    match rng.gen_range(0..if depth < 3 { 8 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Number(Number::U(gen_u64(rng))),
        3 => Value::Number(Number::I(gen_i64(rng).min(-1))),
        4 => Value::Number(Number::F(gen_f64(rng, true) + 0.5)),
        5 => Value::String(gen_string(rng)),
        6 => Value::Array((0..rng.gen_range(0..4)).map(|_| gen_value(rng, depth + 1)).collect()),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (gen_string(rng), gen_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The printer the shim had before it streamed (a `String` per number, a
/// `chars()` loop per string): what "byte-identical to the parent" means.
fn reference_render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Number(Number::U(u)) => out.push_str(&u.to_string()),
        Value::Number(Number::I(i)) => out.push_str(&i.to_string()),
        Value::Number(Number::F(f)) if f.is_finite() => out.push_str(&format!("{f}")),
        Value::Number(Number::F(_)) => out.push_str("null"),
        Value::String(s) => reference_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                reference_render(item, out, indent, depth + 1);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(pairs) if pairs.is_empty() => out.push_str("{}"),
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                reference_string(k, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                reference_render(item, out, indent, depth + 1);
            }
            newline(out, depth);
            out.push('}');
        }
    }
}

fn reference_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Private-use characters `ESCAPED + c` in a key stand for the ASCII
/// character `c` spelled as a `\u00XX` escape: [`perturb`] puts them in,
/// [`render`] spells them out. Generated strings never contain them.
const ESCAPED: u32 = 0xe000;

fn render(v: &Value, indent: Option<usize>) -> String {
    let mut out = String::new();
    reference_render(v, &mut out, indent, 0);
    let escaped = |c: char| (ESCAPED..ESCAPED + 0x80).contains(&(c as u32));
    if !out.contains(escaped) {
        return out;
    }
    out.chars().fold(String::new(), |mut spelled, c| {
        match escaped(c) {
            true => spelled.push_str(&format!("\\u{:04x}", c as u32 - ESCAPED)),
            false => spelled.push(c),
        }
        spelled
    })
}

/// The tree a reader of `x`'s text sees.
fn tree_of<T: Serialize>(x: &T) -> Value {
    serde_json::to_value(x).unwrap()
}

/// Parse by way of the tree: text → `Value` → `from_value`.
fn tree_parse<T: Deserialize>(text: &[u8]) -> Option<T> {
    let v: Value = serde_json::from_slice(text).ok()?;
    serde_json::from_value(&v).ok()
}

/// Does `text` hold, in float syntax, a whole number of 2^53 or more? The
/// writer spells such a float as its shortest digits padded with zeros
/// (2^63 is `9223372036854776000`), so an integer slot reads one number
/// from `text` and another from the tree's text: the one input, reachable
/// only by damage, on which the two parse paths may differ.
fn spells_a_float_inexactly(text: &[u8]) -> bool {
    fn inexact(v: &Value) -> bool {
        match v {
            Value::Number(Number::F(f)) => f.fract() == 0.0 && f.abs() >= (1u64 << 53) as f64,
            Value::Array(items) => items.iter().any(inexact),
            Value::Object(pairs) => pairs.iter().any(|(_, v)| inexact(v)),
            _ => false,
        }
    }
    serde_json::from_slice::<Value>(text).is_ok_and(|v| inexact(&v))
}

/// Both parse paths must agree on `text`: the same value, or both refuse.
fn parses_agree(text: &[u8], what: &str) -> Result<Option<Record>, String> {
    let streamed = serde_json::from_slice::<Record>(text);
    let tree = tree_parse::<Record>(text);
    if streamed.as_ref().ok() != tree.as_ref() && !spells_a_float_inexactly(text) {
        return Err(format!(
            "{what}: streamed parse {:?} != tree parse {:?}\ninput: {}",
            streamed.map_err(|e| e.to_string()),
            tree,
            String::from_utf8_lossy(text)
        ));
    }
    Ok(tree)
}

/// Rearrange a document without changing what a struct reads from it:
/// shuffle members, add unknown ones, repeat one under a later duplicate,
/// re-spell a character of a key as a `\u00XX` escape.
fn perturb(v: &mut Value, rng: &mut StdRng) {
    match v {
        Value::Array(items) => items.iter_mut().for_each(|item| perturb(item, rng)),
        Value::Object(pairs) => {
            pairs.iter_mut().for_each(|(_, item)| perturb(item, rng));
            if rng.gen_bool(0.3) && !pairs.is_empty() {
                let (k, _) = pairs[rng.gen_range(0..pairs.len())].clone();
                pairs.push((k, Value::String("a later duplicate".into())));
            }
            if rng.gen_bool(0.3) {
                let unknown = Value::Array(vec![Value::Null, Value::Object(vec![])]);
                pairs.insert(rng.gen_range(0..=pairs.len()), ("no such key".into(), unknown));
            }
            if rng.gen_bool(0.5) {
                // The first of a duplicated key wins, so shuffle only when
                // keys are distinct.
                let keys: BTreeSet<&String> = pairs.iter().map(|(k, _)| k).collect();
                if keys.len() == pairs.len() {
                    for i in (1..pairs.len()).rev() {
                        pairs.swap(i, rng.gen_range(0..=i));
                    }
                }
            }
            if rng.gen_bool(0.3) && !pairs.is_empty() {
                // After the shuffle: an escaped key looks distinct but is not.
                let at = rng.gen_range(0..pairs.len());
                let key = &mut pairs[at].0;
                let plain: Vec<(usize, char)> = key
                    .char_indices()
                    .filter(|&(_, c)| matches!(c, ' '..='~') && c != '"' && c != '\\')
                    .collect();
                if !plain.is_empty() {
                    let (offset, c) = plain[rng.gen_range(0..plain.len())];
                    let marker = char::from_u32(ESCAPED + c as u32).unwrap();
                    key.replace_range(offset..offset + 1, marker.encode_utf8(&mut [0; 4]));
                }
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

fn check_case(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. The writer's text is the reference renderer's, byte for byte, in
    // both layouts and into any sink — non-finite floats included — whether
    // the typed value or its tree is what is written.
    let any = gen_record(&mut rng, false, 0);
    let tree = tree_of(&any);
    for (indent, streamed, by_value) in [
        (None, serde_json::to_string(&any).unwrap(), serde_json::to_string(&tree).unwrap()),
        (
            Some(2),
            serde_json::to_string_pretty(&any).unwrap(),
            serde_json::to_string_pretty(&tree).unwrap(),
        ),
    ] {
        let reference = render(&tree, indent);
        if streamed != reference {
            return Err(format!("indent {indent:?}: streamed {streamed}\n!= {reference}"));
        }
        if by_value != reference {
            return Err(format!("indent {indent:?}: Value streamed {by_value}\n!= {reference}"));
        }
    }
    let mut sink = Vec::new();
    serde_json::to_writer(&mut sink, &any).unwrap();
    if sink != serde_json::to_vec(&any).unwrap() || sink != render(&tree, None).as_bytes() {
        return Err("to_writer / to_vec differ from the reference text".into());
    }

    // 2. Round trip, compact and pretty, through both parse paths.
    let x = gen_record(&mut rng, true, 0);
    let compact = serde_json::to_string(&x).unwrap();
    for text in [&compact, &serde_json::to_string_pretty(&x).unwrap()] {
        match parses_agree(text.as_bytes(), "round trip")? {
            Some(back) if back == x => {}
            other => return Err(format!("round trip of {x:?}\ngave {other:?}")),
        }
    }

    // 3. Same fields, rearranged: shuffled, with unknown and duplicated
    // keys. Structs read the same value; maps and variants may refuse, but
    // both paths must do the same.
    for _ in 0..4 {
        let mut v = tree_of(&x);
        perturb(&mut v, &mut rng);
        let indent = rng.gen_bool(0.5).then_some(2);
        parses_agree(render(&v, indent).as_bytes(), "perturbed")?;
    }

    // 4. Damage: every path refuses, or both read the same value.
    for _ in 0..16 {
        let cut = rng.gen_range(0..compact.len());
        parses_agree(&compact.as_bytes()[..cut], "truncated")?;
        let mut flipped = compact.clone().into_bytes();
        flipped[cut] ^= 1u8 << rng.gen_range(0..8u32);
        parses_agree(&flipped, "bit flip")?;
    }
    Ok(())
}

#[test]
fn writer_matches_reference_and_both_reads_agree() {
    for case in 0..cases() {
        let seed = SEED_BASE + case;
        if let Err(e) = check_case(seed) {
            panic!("case {case} failed; `check_case({seed:#x})` replays it alone\n{e}");
        }
    }
}

/// One damaged copy of `doc`: a flipped bit, a strict prefix, or a span
/// repeated in place.
fn mutate(doc: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let (i, j) = (rng.gen_range(0..doc.len()), rng.gen_range(0..doc.len()));
    let (a, b) = (i.min(j), i.max(j));
    match rng.gen_range(0..3) {
        0 => {
            let mut flipped = doc.to_vec();
            flipped[a] ^= 1u8 << rng.gen_range(0..8u32);
            flipped
        }
        1 => doc[..a].to_vec(),
        _ => [&doc[..b], &doc[a..b], &doc[b..]].concat(),
    }
}

fn depth(v: &Value) -> usize {
    match v {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Read `bytes` as `T` and as a `Value`: whether they are still JSON. Any
/// outcome will do but a panic or a tree deeper than the reader's limit,
/// which are `None`.
fn read_damaged<T: Deserialize>(bytes: &[u8]) -> Option<bool> {
    std::panic::catch_unwind(|| {
        let _ = serde_json::from_slice::<T>(bytes);
        match serde_json::from_slice::<Value>(bytes) {
            Ok(v) => (depth(&v) <= MAX_DEPTH).then_some(true),
            Err(_) => Some(false),
        }
    })
    .unwrap_or(None)
}

#[test]
fn damaged_documents_are_an_error_or_a_value_never_a_panic() {
    let (mut mutants, mut still_json, mut failures) = (0u32, 0u32, Vec::new());
    for case in 0..cases() / 2 {
        let seed = SEED_BASE + 0x1000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let record = gen_record(&mut rng, false, 0);
        let value = gen_value(&mut rng, 0);
        let mut attack = |doc: Vec<u8>, read: fn(&[u8]) -> Option<bool>| {
            assert_eq!(read(&doc), Some(true), "seed {seed:#x}: undamaged");
            for _ in 0..6 {
                let mutant = mutate(&doc, &mut rng);
                mutants += 1;
                match read(&mutant) {
                    Some(json) => still_json += u32::from(json),
                    None => failures
                        .push(format!("seed {seed:#x}: {}", String::from_utf8_lossy(&mutant))),
                }
            }
        };
        attack(serde_json::to_vec(&record).unwrap(), read_damaged::<Record>);
        attack(serde_json::to_vec(&record.scalars).unwrap(), read_damaged::<Scalars>);
        attack(serde_json::to_vec(&value).unwrap(), read_damaged::<Value>);
    }
    assert!(failures.is_empty(), "{} of {mutants} mutants: {failures:#?}", failures.len());
    // Not vacuous in either direction: most damage is refused, some still reads.
    assert!(still_json > 0 && still_json < mutants / 2, "{still_json} of {mutants} still JSON");
    println!("{mutants} mutants, {still_json} still JSON, 0 panics");
}

#[test]
fn text_is_pinned() {
    // One literal per rule the reference renderer cannot vouch for, since
    // it renders the tree the reader made of the writer's own text: field
    // and variant spelling, omitted fields, and a hash map in order of the
    // text its keys spell (`"` sorts before `#`, its escape would not).
    let by_text: HashMap<String, Shape> = [
        ("a#b".to_string(), Shape::Tuple(7, None)),
        ("a\"b".to_string(), Shape::Named { a: -1, b: vec![2], cache: 9 }),
        ("a".to_string(), Shape::Unit),
    ]
    .into();
    assert_eq!(
        serde_json::to_string(&by_text).unwrap(),
        r#"{"a":"Unit","a\"b":{"Named":{"a":-1,"b":[2]}},"a#b":{"Tuple":[7,null]}}"#
    );
    let by_number: HashMap<Transparent, Pair> = [
        (Transparent { raw: -20 }, Pair(-0, "x".into())),
        (Transparent { raw: 3 }, Pair(1, "".into())),
    ]
    .into();
    assert_eq!(serde_json::to_string(&by_number).unwrap(), r#"{"-20":[0,"x"],"3":[1,""]}"#);
    assert_eq!(
        serde_json::to_string(&(Unit, Newtype(5), -0.0f64, 2.0f32, f64::NAN)).unwrap(),
        "[null,5,-0,2,null]"
    );
    assert_eq!(serde_json::from_str::<f64>("-0").unwrap().to_bits(), (-0.0f64).to_bits());
    let built = serde_json::json!({"n": 2.0, "list": [(Newtype(5)), null, "s"]});
    assert_eq!(serde_json::to_string(&built).unwrap(), r#"{"n":2,"list":[5,null,"s"]}"#);
}

#[test]
fn absent_fields_take_their_declared_default() {
    #[derive(Debug, PartialEq, Deserialize)]
    struct Defaults {
        required: u8,
        #[serde(default)]
        plain: u32,
        #[serde(default = "seven")]
        pathed: u32,
    }
    fn seven() -> u32 {
        7
    }
    let read = serde_json::from_str::<Defaults>;
    assert_eq!(read(r#"{"required":1}"#).unwrap(), Defaults { required: 1, plain: 0, pathed: 7 });
    assert_eq!(
        read(r#"{"pathed":2,"plain":3,"required":1}"#).unwrap(),
        Defaults { required: 1, plain: 3, pathed: 2 }
    );
    assert!(read(r#"{"plain":3,"pathed":2}"#).is_err());
}

#[test]
fn perturbed_structs_still_parse() {
    // Guard against property 3 passing vacuously: with map- and
    // variant-free input every rearrangement must read back equal.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let x = Scalars {
            big: gen_u64(&mut rng),
            neg: gen_i64(&mut rng),
            double: gen_f64(&mut rng, true),
            text: gen_string(&mut rng),
            ch: '😀',
            ..Scalars::default()
        };
        let mut v = tree_of(&x);
        perturb(&mut v, &mut rng);
        let text = render(&v, Some(2));
        assert_eq!(serde_json::from_str::<Scalars>(&text).unwrap(), x, "{text}");
        assert_eq!(tree_parse::<Scalars>(text.as_bytes()).unwrap(), x, "{text}");
    }
}

#[test]
fn near_miss_keys_are_unknown_and_escaped_keys_are_the_field() {
    // A key that is a prefix, an extension or a near spelling of a field's
    // name is an unknown key; one that spells the name with escapes is it.
    let x = Scalars { text: "kept".into(), ..Scalars::default() };
    let plain = serde_json::to_string(&x).unwrap();
    let both = |text: &str| {
        let streamed = serde_json::from_str::<Scalars>(text).ok();
        assert_eq!(streamed, tree_parse(text.as_bytes()), "{text}");
        streamed
    };
    for near in ["tex", "text2", "text ", "Text", "ext", "te\\u0078t2"] {
        let member = format!("\"{near}\":\"no\"");
        let before = plain.replacen('{', &format!("{{{member},"), 1);
        let after = format!("{},{member}}}", &plain[..plain.len() - 1]);
        let inside = plain.replace("\"text\":", &format!("{member},\"text\":"));
        for text in [before, after, inside] {
            assert_eq!(both(&text).as_ref(), Some(&x), "{near:?} is not `text`");
        }
        let instead = plain.replace("\"text\":", &format!("\"{near}\":"));
        assert_eq!(both(&instead), None, "{near:?} stands in for `text`");
    }
    for spelled in ["\\u0074ext", "te\\u0078t", "tex\\u0074", "\\u0074\\u0065\\u0078\\u0074"] {
        let text = plain.replace("\"text\":", &format!("\"{spelled}\":"));
        assert_eq!(both(&text).as_ref(), Some(&x), "{spelled:?} is `text`");
    }
}

#[test]
fn a_skipped_first_field_leaves_no_leading_comma() {
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct LeadSkipped {
        #[serde(default, skip_serializing_if = "Option::is_none")]
        first: Option<u8>,
        #[serde(skip)]
        cache: u8,
        second: u8,
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        last: Vec<u8>,
    }
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct OnlySkipped {
        #[serde(default, skip_serializing_if = "Option::is_none")]
        only: Option<u8>,
    }
    for (first, last) in [(None, vec![]), (None, vec![3]), (Some(1), vec![]), (Some(1), vec![3])] {
        let x = LeadSkipped { first, cache: 0, second: 2, last };
        for indent in [None, Some(2)] {
            let written = match indent {
                None => serde_json::to_string(&x).unwrap(),
                Some(_) => serde_json::to_string_pretty(&x).unwrap(),
            };
            assert_eq!(written, render(&tree_of(&x), indent));
            assert_eq!(serde_json::from_str::<LeadSkipped>(&written).unwrap(), x);
        }
    }
    let x = LeadSkipped { first: None, cache: 9, second: 2, last: vec![] };
    assert_eq!(serde_json::to_string(&x).unwrap(), r#"{"second":2}"#);
    assert_eq!(serde_json::to_string_pretty(&x).unwrap(), "{\n  \"second\": 2\n}");
    let none = OnlySkipped { only: None };
    assert_eq!(serde_json::to_string(&none).unwrap(), "{}");
    assert_eq!(serde_json::to_string_pretty(&none).unwrap(), "{}");
    let some = OnlySkipped { only: Some(4) };
    assert_eq!(serde_json::to_string(&some).unwrap(), r#"{"only":4}"#);
}

#[test]
fn map_keys_read_the_same_both_ways() {
    // Keys Rust parses but the JSON number grammar does not.
    for key in ["7", "+7", "007", "7.0", "7e0", "-0", " 7", "inf", "true", "", "\\u0037"] {
        let text = format!("{{\"{key}\":1}}");
        let streamed = serde_json::from_str::<BTreeMap<u8, u8>>(&text).ok();
        assert_eq!(streamed, tree_parse(text.as_bytes()), "u8 key {key:?}");
        let streamed = serde_json::from_str::<BTreeMap<i64, u8>>(&text).ok();
        assert_eq!(streamed, tree_parse(text.as_bytes()), "i64 key {key:?}");
        let streamed = serde_json::from_str::<BTreeMap<bool, u8>>(&text).ok();
        assert_eq!(streamed, tree_parse(text.as_bytes()), "bool key {key:?}");
        let streamed = serde_json::from_str::<BTreeMap<String, u8>>(&text).ok();
        assert_eq!(streamed, tree_parse(text.as_bytes()), "string key {key:?}");
    }
    let floats: BTreeMap<String, f64> =
        serde_json::from_str(r#"{"a":1,"b":-2,"c":1e2,"d":18446744073709551616}"#).unwrap();
    assert_eq!(floats["d"], 18446744073709551616.0);
    assert_eq!(serde_json::from_str::<u64>("1e2").unwrap(), 100);
}

/// An `f64` map key: ordered by bits, spelled by the writer's key mode.
#[derive(Debug, Serialize)]
struct FloatKey(f64);

impl PartialEq for FloatKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}
impl Eq for FloatKey {}
impl PartialOrd for FloatKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The floats whose printed form changes shape: signed zero, the
/// subnormal and normal edges, the end of exact integers, the largest
/// value, each power of ten `Display` still spells without an exponent
/// and its two neighbours, and two sums that do not round to a short
/// decimal.
fn edge_floats() -> Vec<f64> {
    let mut edges = vec![
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
        (1u64 << 53) as f64 - 1.0,
        (1u64 << 53) as f64,
        (1u64 << 53) as f64 + 2.0,
        f64::MAX,
        0.1 + 0.2,
        1.0 / 3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for n in -8..=23 {
        let p: f64 = format!("1e{n}").parse().unwrap();
        edges.extend([p, p.next_up(), p.next_down()]);
    }
    let negated: Vec<f64> = edges.iter().map(|f| -f).collect();
    edges.extend(negated);
    edges
}

/// `Display`'s spelling of `f`, or `null` where JSON has no number.
fn display_or_null(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "null".into()
    }
}

/// Check one batch of floats against `Display` three ways: alone, as the
/// values of a map, and as its keys (quoted, non-finite ones spelled out).
fn floats_print_as_display(batch: &[f64]) -> Result<(), String> {
    for &f in batch {
        let text = serde_json::to_string(&f).unwrap();
        if text != display_or_null(f) {
            return Err(format!("{f:e} ({:#x}): wrote {text}", f.to_bits()));
        }
    }
    let values: BTreeMap<String, f64> =
        batch.iter().enumerate().map(|(i, &f)| (format!("{i:07}"), f)).collect();
    let expect: Vec<String> =
        values.iter().map(|(k, &f)| format!("\"{k}\":{}", display_or_null(f))).collect();
    if serde_json::to_string(&values).unwrap() != format!("{{{}}}", expect.join(",")) {
        return Err("floats as map values differ from Display".into());
    }
    let keys: BTreeMap<FloatKey, u8> = batch.iter().map(|&f| (FloatKey(f), 0)).collect();
    let expect: Vec<String> = keys.keys().map(|k| format!("\"{}\":0", k.0)).collect();
    if serde_json::to_string(&keys).unwrap() != format!("{{{}}}", expect.join(",")) {
        return Err("floats as map keys differ from Display".into());
    }
    Ok(())
}

#[test]
fn floats_are_written_as_display_prints_them() {
    floats_print_as_display(&edge_floats()).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED_BASE + 0x2000);
    // Any bit pattern (mostly very large or very small magnitudes), then
    // the short decimals and whole numbers a run's records carry.
    let mut batch = Vec::with_capacity(4096);
    for round in 0..(1 << 20) / 4096 {
        batch.clear();
        batch.extend((0..4096).map(|_| f64::from_bits(rng.gen::<u64>())));
        floats_print_as_display(&batch)
            .unwrap_or_else(|e| panic!("bit patterns, round {round}: {e}"));
    }
    for round in 0..64 {
        batch.clear();
        batch.extend((0..4096).map(|_| {
            let mantissa = rng.gen::<u64>() >> rng.gen_range(0..64u32);
            let scaled = mantissa as f64 / 10f64.powi(rng.gen_range(0..12));
            if rng.gen_bool(0.5) {
                -scaled
            } else {
                scaled
            }
        }));
        floats_print_as_display(&batch).unwrap_or_else(|e| panic!("decimals, round {round}: {e}"));
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let text = open.repeat(10_000);
        assert!(serde_json::from_str::<Value>(&text).is_err());
        assert!(serde_json::from_str::<Record>(&text).is_err());
        // …also where a typed read skips an unknown member.
        let skipped = format!("{{\"unknown\":{text}");
        assert!(serde_json::from_str::<Scalars>(&skipped).is_err());
    }
    let fits = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(serde_json::from_str::<Value>(&fits).is_ok());
    let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert!(serde_json::from_str::<Value>(&too_deep).is_err());
}
