//! Workspace-local stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` against the value-model trait of
//! the sibling `serde` stub, using only the built-in `proc_macro` API
//! (no `syn`/`quote`, which are unavailable in this offline build).
//! Serialization is write-only, so there is no read-side derive.
//! Supports what the workspace actually derives:
//!
//! * structs with named fields (including generic parameters, with a
//!   `Serialize` bound added per type parameter);
//! * tuple structs (newtypes serialize transparently);
//! * unit structs;
//! * enums with unit, tuple, and struct variants (externally tagged).
//!
//! Unsupported shapes (`where` clauses, lifetime and const generics,
//! unions) panic at expansion time with a clear message rather than
//! generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed generic type parameter.
struct GenericParam {
    /// The parameter's name, e.g. `T`.
    name: String,
    /// Declaration with bounds but without defaults, e.g. `T: Clone`.
    decl: String,
}

struct Field {
    name: String,
}

enum Body {
    /// Named fields.
    Struct(Vec<Field>),
    /// Tuple struct with this many fields.
    Tuple(usize),
    /// No fields.
    Unit,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    body: VariantBody,
}

enum VariantBody {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Item {
    name: String,
    generics: Vec<GenericParam>,
    body: Body,
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    expand_serialize(&item).parse().expect("generated Serialize impl must parse")
}

// --- parsing ---------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);

    let kind = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde stub derive: expected `struct` or `enum`, got {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde stub derive: expected item name, got {other}"),
    };
    i += 1;

    let generics = if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        let (params, next) = parse_generics(&toks, i + 1);
        i = next;
        params
    } else {
        Vec::new()
    };

    if matches!(&toks.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        panic!("serde stub derive: `where` clauses are not supported (on `{name}`)");
    }

    let body = match kind.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Struct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
            other => panic!("serde stub derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde stub derive: unsupported enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde stub derive: unsupported item kind `{other}`"),
    };

    Item { name, generics, body }
}

fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` etc.
                }
            }
            _ => return,
        }
    }
}

/// Parses generic params starting just after `<`; returns the params and
/// the index just after the matching `>`.
fn parse_generics(toks: &[TokenTree], mut i: usize) -> (Vec<GenericParam>, usize) {
    let mut depth = 1usize;
    let mut current: Vec<TokenTree> = Vec::new();
    let mut raw_params: Vec<Vec<TokenTree>> = Vec::new();
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                current.push(toks[i].clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    if !current.is_empty() {
                        raw_params.push(std::mem::take(&mut current));
                    }
                    i += 1;
                    break;
                }
                current.push(toks[i].clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                raw_params.push(std::mem::take(&mut current));
            }
            t => current.push(t.clone()),
        }
        i += 1;
    }
    let params = raw_params.iter().map(|p| parse_generic_param(p)).collect();
    (params, i)
}

fn parse_generic_param(toks: &[TokenTree]) -> GenericParam {
    // `T`, `T: Bounds`, `T = Default`, `T: Bounds = Default`.
    let name = toks[0].to_string();
    if name == "'" || name == "const" {
        panic!("serde stub derive: lifetime and const generics are not supported");
    }
    let before_default: Vec<TokenTree> = {
        let mut out = Vec::new();
        let mut depth = 0usize;
        for t in toks {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == '=' && depth == 0 => break,
                _ => {}
            }
            out.push(t.clone());
        }
        out
    };
    GenericParam { name, decl: tokens_to_string(&before_default) }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde stub derive: expected field name, got {other}"),
        };
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde stub derive: expected `:` after field `{name}`, got {other}"),
        }
        // Skip the type up to a top-level comma.
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name });
    }
    fields
}

/// Counts tuple-struct fields: top-level commas + 1 (ignoring a trailing
/// comma), 0 for an empty stream.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0usize;
    let mut count = 1;
    for (idx, t) in toks.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 && idx + 1 < toks.len() => {
                count += 1;
            }
            _ => {}
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde stub derive: expected variant name, got {other}"),
        };
        i += 1;
        let body = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantBody::Struct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantBody::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantBody::Unit,
        };
        // Skip a discriminant (`= expr`) and the separating comma.
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        variants.push(Variant { name, body });
    }
    variants
}

fn tokens_to_string(toks: &[TokenTree]) -> String {
    let mut s = String::new();
    for t in toks {
        s.push_str(&t.to_string());
        s.push(' ');
    }
    // A lifetime tick tokenizes separately from its identifier; re-join
    // them so the emitted text parses (`' a` -> `'a`).
    s.replace("' ", "'")
}

// --- expansion -------------------------------------------------------

/// The `impl <...> ::serde::Serialize for Name <...>` header, with a
/// `Serialize` bound added to every type parameter.
fn impl_header(item: &Item) -> String {
    if item.generics.is_empty() {
        return format!("impl ::serde::Serialize for {}", item.name);
    }
    let bounded: Vec<String> = item
        .generics
        .iter()
        .map(|g| {
            let sep = if g.decl.contains(':') { " +" } else { ":" };
            format!("{}{sep} ::serde::Serialize", g.decl)
        })
        .collect();
    let names: Vec<&str> = item.generics.iter().map(|g| g.name.as_str()).collect();
    format!(
        "impl <{}> ::serde::Serialize for {} <{}>",
        bounded.join(", "),
        item.name,
        names.join(", ")
    )
}

fn expand_serialize(item: &Item) -> String {
    let header = impl_header(item);
    let body = match &item.body {
        Body::Struct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value(&self.{0}))",
                        f.name
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::Tuple(n) => {
            let entries: Vec<String> =
                (0..*n).map(|k| format!("::serde::Serialize::to_value(&self.{k})")).collect();
            format!("::serde::Value::Seq(::std::vec![{}])", entries.join(", "))
        }
        Body::Unit => "::serde::Value::Null".to_string(),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let ename = &item.name;
                    match &v.body {
                        VariantBody::Unit => format!(
                            "{ename}::{vname} => ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
                        ),
                        VariantBody::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                            let payload = if *n == 1 {
                                "::serde::Serialize::to_value(f0)".to_string()
                            } else {
                                let vals: Vec<String> = binds
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                                    .collect();
                                format!("::serde::Value::Seq(::std::vec![{}])", vals.join(", "))
                            };
                            format!(
                                "{ename}::{vname}({}) => ::serde::Value::Map(::std::vec![(::std::string::String::from(\"{vname}\"), {payload})]),",
                                binds.join(", ")
                            )
                        }
                        VariantBody::Struct(fields) => {
                            let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value({0}))",
                                        f.name
                                    )
                                })
                                .collect();
                            format!(
                                "{ename}::{vname} {{ {} }} => ::serde::Value::Map(::std::vec![(::std::string::String::from(\"{vname}\"), ::serde::Value::Map(::std::vec![{}]))]),",
                                binds.join(", "),
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived] {header} {{ fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}
