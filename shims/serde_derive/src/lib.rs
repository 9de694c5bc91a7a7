//! Offline shim for `serde_derive`: a hand-rolled token-tree parser and
//! string-based code generator (no `syn`/`quote`). Supports the subset of
//! shapes this workspace actually derives on:
//!
//! - named structs (with `#[serde(skip)]` / `#[serde(default)]` /
//!   `#[serde(default = "path")]` / `#[serde(skip_serializing_if = "path")]`
//!   fields)
//! - tuple structs (newtypes delegate to the inner value, like serde)
//! - unit structs
//! - `#[serde(transparent)]`
//! - enums with unit / newtype / tuple / struct variants, externally
//!   tagged exactly like serde (`"Variant"` / `{"Variant": ...}`)
//!
//! Generics are intentionally unsupported (the workspace derives on
//! concrete types only); a `compile_error!` fires if one slips in.
//!
//! Each derive emits one method: `write_json` (tokens straight into a
//! `JsonWriter`) or `read_json` (straight out of a `JsonReader`). The
//! writer's keys are byte literals built here, `"name":`.
//! `shims/serde_json/tests/differential.rs` checks every shape.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What a field becomes when the input does not have its key.
#[derive(Default)]
enum Missing {
    /// A missing-field error.
    #[default]
    Error,
    /// `Default::default()`, from `#[serde(default)]`.
    Default,
    /// The result of calling the path in `#[serde(default = "path")]`.
    Call(String),
}

#[derive(Default)]
struct Attrs {
    transparent: bool,
    skip: bool,
    missing: Missing,
    /// Predicate path from `skip_serializing_if = "path"`, called with a
    /// reference to the field exactly like real serde.
    skip_ser_if: Option<String>,
}

struct Field {
    name: String,
    skip: bool,
    missing: Missing,
    skip_ser_if: Option<String>,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Kind {
    UnitStruct,
    NamedStruct { fields: Vec<Field>, transparent: bool },
    TupleStruct { arity: usize },
    Enum { variants: Vec<Variant> },
}

struct Input {
    name: String,
    kind: Kind,
}

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor { toks: ts.into_iter().collect(), pos: 0 }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Consume any run of outer attributes, merging their serde flags.
    fn parse_attrs(&mut self) -> Attrs {
        let mut a = Attrs::default();
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.next();
            let Some(TokenTree::Group(g)) = self.next() else { break };
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let is_serde =
                matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
            if !is_serde {
                continue;
            }
            if let Some(TokenTree::Group(args)) = inner.get(1) {
                let toks: Vec<TokenTree> = args.stream().into_iter().collect();
                for (i, tok) in toks.iter().enumerate() {
                    // The path in `word = "path"`, if that is how `word` is
                    // followed (the literal itself matches no arm below).
                    let path = match (toks.get(i + 1), toks.get(i + 2)) {
                        (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit)))
                            if eq.as_char() == '=' =>
                        {
                            Some(lit.to_string().trim_matches('"').to_string())
                        }
                        _ => None,
                    };
                    if let TokenTree::Ident(w) = tok {
                        match w.to_string().as_str() {
                            "transparent" => a.transparent = true,
                            "skip" | "skip_serializing" | "skip_deserializing" => a.skip = true,
                            "default" => a.missing = path.map_or(Missing::Default, Missing::Call),
                            "skip_serializing_if" => a.skip_ser_if = path,
                            _ => {}
                        }
                    }
                }
            }
        }
        a
    }

    /// Consume `pub` / `pub(...)` if present.
    fn parse_vis(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }

    /// Skip tokens until a `,` at angle-bracket depth 0 (consuming it),
    /// or until the end of the stream.
    fn skip_until_top_comma(&mut self) {
        let mut depth: i32 = 0;
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth <= 0 => {
                        self.next();
                        return;
                    }
                    _ => {}
                }
            }
            self.next();
        }
    }
}

fn parse_input(ts: TokenStream) -> Result<Input, String> {
    let mut c = Cursor::new(ts);
    let top = c.parse_attrs();
    c.parse_vis();

    let Some(TokenTree::Ident(kw)) = c.next() else {
        return Err("expected `struct` or `enum`".into());
    };
    let kw = kw.to_string();
    let Some(TokenTree::Ident(name)) = c.next() else {
        return Err("expected type name".into());
    };
    let name = name.to_string();

    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("serde shim derive: generic type `{name}` is unsupported"));
    }

    match kw.as_str() {
        "struct" => match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                Ok(Input { name, kind: Kind::NamedStruct { fields, transparent: top.transparent } })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                Ok(Input { name, kind: Kind::TupleStruct { arity } })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                Ok(Input { name, kind: Kind::UnitStruct })
            }
            None => Ok(Input { name, kind: Kind::UnitStruct }),
            _ => Err(format!("unexpected token after `struct {name}`")),
        },
        "enum" => {
            let Some(TokenTree::Group(g)) = c.next() else {
                return Err(format!("expected enum body for `{name}`"));
            };
            let variants = parse_variants(g.stream())?;
            Ok(Input { name, kind: Kind::Enum { variants } })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn parse_named_fields(ts: TokenStream) -> Result<Vec<Field>, String> {
    let mut c = Cursor::new(ts);
    let mut out = Vec::new();
    while !c.at_end() {
        let a = c.parse_attrs();
        c.parse_vis();
        let Some(TokenTree::Ident(fname)) = c.next() else {
            return Err("expected field name".into());
        };
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("expected `:` after field `{fname}`")),
        }
        c.skip_until_top_comma();
        out.push(Field {
            name: fname.to_string(),
            skip: a.skip,
            missing: a.missing,
            skip_ser_if: a.skip_ser_if,
        });
    }
    Ok(out)
}

/// Count top-level comma-separated segments in a tuple-field list.
fn tuple_arity(ts: TokenStream) -> usize {
    let mut depth: i32 = 0;
    let mut commas = 0usize;
    let mut any = false;
    let mut trailing_comma = false;
    for t in ts {
        any = true;
        trailing_comma = false;
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth <= 0 => {
                    commas += 1;
                    trailing_comma = true;
                }
                _ => {}
            }
        }
    }
    if !any {
        0
    } else if trailing_comma {
        commas
    } else {
        commas + 1
    }
}

fn parse_variants(ts: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(ts);
    let mut out = Vec::new();
    while !c.at_end() {
        c.parse_attrs();
        let Some(TokenTree::Ident(vname)) = c.next() else {
            return Err("expected variant name".into());
        };
        let kind = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                c.next();
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                c.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant / trailing comma.
        c.skip_until_top_comma();
        out.push(Variant { name: vname.to_string(), kind });
    }
    Ok(out)
}

fn compile_err(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("valid compile_error tokens")
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = match parse_input(input) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    let name = &input.name;
    let body = match &input.kind {
        Kind::UnitStruct | Kind::TupleStruct { arity: 0 } => "__w.null();".to_string(),
        Kind::TupleStruct { arity } => {
            ser_tuple(&(0..*arity).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
        }
        Kind::NamedStruct { fields, transparent } => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            if *transparent && live.len() == 1 {
                ser_tuple(&[format!("&self.{}", live[0].name)])
            } else {
                ser_named(fields, |f| format!("&self.{}", f.name))
            }
        }
        Kind::Enum { variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, payload) = match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!("{name}::{vn} => __w.str({vn:?}),\n"));
                        continue;
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        (format!("({})", binds.join(", ")), ser_tuple(&binds))
                    }
                    VariantKind::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| format!("{}: __b_{}", f.name, f.name)).collect();
                        // Skipped fields are bound too; `let _` keeps them used.
                        let ignore: String = fields
                            .iter()
                            .filter(|f| f.skip)
                            .map(|f| format!("let _ = __b_{};\n", f.name))
                            .collect();
                        let write = ser_named(fields, |f| format!("__b_{}", f.name));
                        (format!("{{ {} }}", binds.join(", ")), format!("{ignore}{write}"))
                    }
                };
                arms.push_str(&format!(
                    "{name}::{vn}{pattern} => {{ let __t = __w.begin_variant({});\n\
                     {payload}\n__w.end_object(__t); }}\n",
                    key_bytes(vn)
                ));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn write_json<__W: ::std::io::Write>(&self, __w: &mut ::serde::JsonWriter<__W>) {{\n{body}\n}}\n\
         }}\n"
    );
    out.parse().unwrap_or_else(|_| compile_err("serde shim: generated Serialize failed to parse"))
}

/// Statements writing positional fields, each given as an expression for a
/// reference to it: one delegates to it (newtype, like serde), otherwise
/// an array.
fn ser_tuple(refs: &[String]) -> String {
    if let [only] = refs {
        return format!("::serde::Serialize::write_json({only}, __w);");
    }
    let writes: String = refs
        .iter()
        .map(|r| format!("__w.elem(&mut __a); ::serde::Serialize::write_json({r}, __w);\n"))
        .collect();
    format!("let mut __a = __w.begin_array();\n{writes}__w.end_array(__a);")
}

/// A `&'static [u8]` expression for `"name":`: a field or variant name
/// is an identifier, so it needs no escape.
fn key_bytes(name: &str) -> String {
    format!("{:?}.as_bytes()", format!("\"{name}\":"))
}

/// Statements writing named fields as an object in declaration order;
/// `access` gives the expression for a reference to a field.
fn ser_named(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let mut out = String::from("let mut __s = __w.begin_object();\n");
    for f in fields.iter().filter(|f| !f.skip) {
        let (n, r) = (&f.name, access(f));
        let write = format!(
            "__w.key(&mut __s, {}); ::serde::Serialize::write_json({r}, __w);\n",
            key_bytes(n)
        );
        match &f.skip_ser_if {
            Some(pred) => out.push_str(&format!("if !{pred}({r}) {{ {write} }}\n")),
            None => out.push_str(&write),
        }
    }
    out.push_str("__w.end_object(__s);");
    out
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = match parse_input(input) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    let name = &input.name;
    let body = match &input.kind {
        Kind::UnitStruct => de_tuple(name, 0),
        Kind::TupleStruct { arity: 0 } => de_tuple(&format!("{name}()"), 0),
        Kind::TupleStruct { arity } => de_tuple(name, *arity),
        Kind::NamedStruct { fields, transparent } => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            if *transparent && live.len() == 1 {
                let inits: String = fields
                    .iter()
                    .map(|f| match f.skip {
                        true => format!("{}: ::std::default::Default::default(),\n", f.name),
                        false => format!("{}: ::serde::Deserialize::read_json(__r)?,\n", f.name),
                    })
                    .collect();
                format!("{name} {{\n{inits}}}")
            } else {
                de_named(name, fields)
            }
        }
        Kind::Enum { variants } => {
            let (mut unit_arms, mut data_arms) = (String::new(), String::new());
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                let body = match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("{vn:?} => return Ok({ctor}),\n"));
                        continue;
                    }
                    VariantKind::Tuple(0) => de_tuple(&format!("{ctor}()"), 0),
                    VariantKind::Tuple(n) => de_tuple(&ctor, *n),
                    VariantKind::Named(fields) => de_named(&ctor, fields),
                };
                data_arms.push_str(&format!("{vn:?} => {body},\n"));
            }
            let unknown = format!(
                "__other => return Err(::serde::Error::msg(format!(\
                 \"unknown variant `{{}}` of {name}\", __other))),\n"
            );
            let data = if data_arms.is_empty() {
                // `Err(..)?` rather than `return Err(..)`: the block still
                // has the value's type, so `Ok(block)` is not dead code.
                format!("Err(__r.mismatch(\"variant of {name}\"))?")
            } else {
                format!(
                    "let __tag = __r.begin_variant({name:?})?;\n\
                     let __out = match &*__tag {{\n{data_arms}{unknown}}};\n\
                     __r.end_variant({name:?})?;\n__out"
                )
            };
            format!(
                "{{ if __r.at_string() {{\n\
                 match &*__r.read_str(\"string\")? {{\n{unit_arms}{unknown}}}\n}}\n{data} }}"
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn read_json(__r: &mut ::serde::JsonReader<'_>) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n\
         Ok({body})\n}}\n\
         }}\n"
    );
    out.parse().unwrap_or_else(|_| compile_err("serde shim: generated Deserialize failed to parse"))
}

/// A block reading positional fields into `ctor` (for arity 0, the
/// finished value, which any JSON value satisfies) and evaluating to it,
/// leaving by `?` on bad input. Errors name the type by `ctor`.
fn de_tuple(ctor: &str, arity: usize) -> String {
    match arity {
        0 => format!("{{ __r.skip_value()?; {ctor} }}"),
        1 => format!("{ctor}(::serde::Deserialize::read_json(__r)?)"),
        n => {
            let reads: Vec<String> = (0..n)
                .map(|_| {
                    format!(
                        "{{ __r.tuple_elem(&mut __a, {n}, {ctor:?})?; \
                         ::serde::Deserialize::read_json(__r)? }}"
                    )
                })
                .collect();
            format!(
                "{{ let mut __a = __r.begin_array(\"array for {ctor}\")?;\n\
                 let __out = {ctor}({});\n\
                 __r.end_tuple(&mut __a, {n}, {ctor:?})?;\n__out }}",
                reads.join(", ")
            )
        }
    }
}

/// A block reading named fields into `ctor`: unknown keys are skipped and
/// the first of a duplicated key wins. Errors name the type by `ctor`.
fn de_named(ctor: &str, fields: &[Field]) -> String {
    let (mut slots, mut arms, mut inits) = (String::new(), String::new(), String::new());
    for f in fields {
        let n = &f.name;
        if f.skip {
            inits.push_str(&format!("{n}: ::std::default::Default::default(),\n"));
            continue;
        }
        slots.push_str(&format!("let mut __f_{n} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "{n:?} if __f_{n}.is_none() => __f_{n} = \
             ::std::option::Option::Some(__r.field({ctor:?}, {n:?})?),\n"
        ));
        inits.push_str(&match &f.missing {
            Missing::Default => format!("{n}: __f_{n}.unwrap_or_default(),\n"),
            Missing::Call(path) => format!("{n}: __f_{n}.unwrap_or_else({path}),\n"),
            Missing::Error => format!(
                "{n}: match __f_{n} {{\n\
                 ::std::option::Option::Some(__fv) => __fv,\n\
                 ::std::option::Option::None => \
                 return Err(::serde::__missing_field({n:?}, {ctor:?})),\n}},\n"
            ),
        });
    }
    format!(
        "{{ {slots}let mut __s = __r.begin_object(\"object for {ctor}\")?;\n\
         while let ::std::option::Option::Some(__k) = __r.next_key(&mut __s)? {{\n\
         match &*__k {{\n{arms}_ => __r.skip_value()?,\n}}\n}}\n\
         {ctor} {{\n{inits}}} }}"
    )
}
