//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! offline `serde` shim.
//!
//! No `syn`/`quote` are available offline, so this parses the derive input
//! token stream directly. It supports exactly the shapes this workspace
//! derives on: non-generic structs and non-generic enums (unit, tuple and
//! struct variants), with upstream serde's externally tagged JSON.
//!
//! * `Serialize` covers named, tuple and unit structs. One-field tuple
//!   structs serialize transparently (matching the workspace's only uses
//!   of `#[serde(transparent)]`).
//! * `Deserialize` covers named structs and enums. A missing key is
//!   decided by the field type (only `Option` may be absent, as `None`),
//!   except that a field marked `#[serde(default)]` falls back to
//!   `Default::default()`. Unknown keys are ignored.
//!
//! Other serde attributes are accepted and ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (JSON, externally tagged enums).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::NamedStruct(fields) => named_struct_body(fields),
        Shape::TupleStruct(arity) => tuple_struct_body(*arity),
        Shape::UnitStruct => "out.push_str(\"null\");".to_string(),
        Shape::Enum(variants) => enum_body(&item.name, variants),
    };
    let impl_code = format!(
        "impl ::serde::Serialize for {} {{\n\
         fn serialize_json_into(&self, out: &mut String) {{\n{body}\n}}\n}}",
        item.name
    );
    impl_code.parse().expect("generated impl parses")
}

/// Derives `serde::Deserialize` (JSON, externally tagged enums).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => format!(
            "let __map = ::serde::de::object(__value, {name:?})?;\n\
             ::core::result::Result::Ok({name} {{ {} }})",
            decode_fields(fields)
        ),
        Shape::Enum(variants) => decode_enum(name, variants),
        Shape::TupleStruct(_) | Shape::UnitStruct => {
            panic!("serde shim derives Deserialize for named structs and enums only (on `{name}`)")
        }
    };
    let impl_code = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize_value(__value: &::serde::Value) \
         -> ::core::result::Result<Self, ::serde::de::Error> {{\n{body}\n}}\n}}"
    );
    impl_code.parse().expect("generated impl parses")
}

struct Item {
    name: String,
    shape: Shape,
}

struct Field {
    name: String,
    /// Marked `#[serde(default)]`.
    default: bool,
}

enum Shape {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic types (on `{name}`)");
    }
    let shape = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_top_level_items(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("unexpected struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("unexpected enum body for `{name}`: {other:?}"),
        },
        other => panic!("derive target must be a struct or enum, found `{other}`"),
    };
    Item { name, shape }
}

/// Skips outer attributes; returns whether one of them is
/// `#[serde(default)]`.
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut default = false;
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1; // '#'
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Bracket {
                default |= is_serde_default(g.stream());
                *i += 1;
            }
        }
    }
    default
}

/// Whether an attribute body reads `serde(default)`.
fn is_serde_default(attr: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(args)] if id.to_string() == "serde" => args
            .stream()
            .into_iter()
            .any(|t| matches!(t, TokenTree::Ident(a) if a.to_string() == "default")),
        _ => false,
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("expected identifier, found {other:?}"),
    }
}

/// Parses `name: Type, ...` field lists, tracking `<...>` nesting so types
/// like `HashMap<K, V>` do not split fields at inner commas.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let default = skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        fields.push(Field { name, default });
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

/// Counts comma-separated items at angle-depth zero (tuple fields).
fn count_top_level_items(stream: TokenStream) -> usize {
    let mut count = 0;
    let mut pending = false;
    let mut angle_depth = 0i32;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    if pending {
                        count += 1;
                    }
                    pending = false;
                    continue;
                }
                _ => {}
            }
        }
        pending = true;
    }
    if pending {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_top_level_items(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip to the next variant separator.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn push_literal(code: &mut String, text: &str) {
    code.push_str(&format!("out.push_str({text:?});\n"));
}

fn named_struct_body(fields: &[Field]) -> String {
    let mut code = String::new();
    push_literal(&mut code, "{");
    for (k, Field { name: field, .. }) in fields.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        push_literal(&mut code, &format!("{sep}\"{field}\":"));
        code.push_str(&format!(
            "::serde::Serialize::serialize_json_into(&self.{field}, out);\n"
        ));
    }
    push_literal(&mut code, "}");
    code
}

fn tuple_struct_body(arity: usize) -> String {
    let mut code = String::new();
    if arity == 1 {
        // Transparent newtype (covers the workspace's `#[serde(transparent)]`).
        code.push_str("::serde::Serialize::serialize_json_into(&self.0, out);\n");
        return code;
    }
    push_literal(&mut code, "[");
    for k in 0..arity {
        if k > 0 {
            push_literal(&mut code, ",");
        }
        code.push_str(&format!(
            "::serde::Serialize::serialize_json_into(&self.{k}, out);\n"
        ));
    }
    push_literal(&mut code, "]");
    code
}

fn enum_body(name: &str, variants: &[Variant]) -> String {
    let mut code = String::from("match self {\n");
    for variant in variants {
        let vname = &variant.name;
        match &variant.kind {
            VariantKind::Unit => {
                code.push_str(&format!(
                    "{name}::{vname} => out.push_str(\"\\\"{vname}\\\"\"),\n"
                ));
            }
            VariantKind::Tuple(arity) => {
                let binders: Vec<String> = (0..*arity).map(|k| format!("__f{k}")).collect();
                code.push_str(&format!("{name}::{vname}({}) => {{\n", binders.join(", ")));
                push_literal(&mut code, &format!("{{\"{vname}\":"));
                if *arity == 1 {
                    code.push_str("::serde::Serialize::serialize_json_into(__f0, out);\n");
                } else {
                    push_literal(&mut code, "[");
                    for (k, b) in binders.iter().enumerate() {
                        if k > 0 {
                            push_literal(&mut code, ",");
                        }
                        code.push_str(&format!(
                            "::serde::Serialize::serialize_json_into({b}, out);\n"
                        ));
                    }
                    push_literal(&mut code, "]");
                }
                push_literal(&mut code, "}");
                code.push_str("}\n");
            }
            VariantKind::Struct(fields) => {
                let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                code.push_str(&format!(
                    "{name}::{vname} {{ {} }} => {{\n",
                    names.join(", ")
                ));
                push_literal(&mut code, &format!("{{\"{vname}\":{{"));
                for (k, field) in names.iter().enumerate() {
                    let sep = if k > 0 { "," } else { "" };
                    push_literal(&mut code, &format!("{sep}\"{field}\":"));
                    code.push_str(&format!(
                        "::serde::Serialize::serialize_json_into({field}, out);\n"
                    ));
                }
                push_literal(&mut code, "}}");
                code.push_str("}\n");
            }
        }
    }
    code.push_str("}\n");
    code
}

/// `name: <decode>?, ...` initializers reading the fields from `__map`.
fn decode_fields(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|Field { name, default }| {
            let getter = if *default {
                "field_or_default"
            } else {
                "field"
            };
            format!("{name}: ::serde::de::{getter}(__map, {name:?})?,")
        })
        .collect()
}

fn decode_enum(name: &str, variants: &[Variant]) -> String {
    let mut code = format!(
        "let (__tag, __body) = ::serde::de::variant(__value, {name:?})?;\n\
         ::core::result::Result::Ok(match __tag {{\n"
    );
    for Variant { name: vname, kind } in variants {
        let arm = match kind {
            VariantKind::Unit => {
                format!("::serde::de::unit_variant(__body, __tag)?; {name}::{vname}")
            }
            VariantKind::Tuple(1) => {
                format!("{name}::{vname}(::serde::Deserialize::deserialize_value(__body)?)")
            }
            VariantKind::Tuple(arity) => {
                let items: String = (0..*arity)
                    .map(|k| {
                        format!(
                            "::serde::Deserialize::deserialize_value(&__items[{k}])\
                             .map_err(|__e| __e.at({k}))?,"
                        )
                    })
                    .collect();
                format!(
                    "let __items = ::serde::de::tuple_body(__body, {arity})?; \
                     {name}::{vname}({items})"
                )
            }
            VariantKind::Struct(fields) => format!(
                "let __map = ::serde::de::object(__body, __tag)?; {name}::{vname} {{ {} }}",
                decode_fields(fields)
            ),
        };
        code.push_str(&format!("{vname:?} => {{ {arm} }}\n"));
    }
    code.push_str(&format!(
        "__other => return ::core::result::Result::Err(\
         ::serde::de::unknown_variant(__other, {name:?})),\n}})"
    ));
    code
}
