//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros
//! for the in-repo serde shim.
//!
//! No `syn`/`quote`: the item is parsed directly from the
//! [`proc_macro::TokenStream`] and the impl is emitted as a string. The
//! supported shapes are exactly what this workspace uses:
//!
//! * structs with named fields (`#[serde(default)]`,
//!   `#[serde(default = "path")]`, `#[serde(skip)]` honoured per field;
//!   container-level `#[serde(default)]` marks every field defaultable,
//!   container-level `#[serde(deny_unknown_fields)]` rejects keys that
//!   name no field);
//! * tuple structs (newtypes serialize transparently, wider tuples as
//!   arrays);
//! * enums with unit / newtype / tuple / struct variants, externally
//!   tagged like serde (`"Unit"` or `{"Variant": payload}`);
//! * `#[serde(untagged)]` enums with newtype variants (first variant
//!   that deserializes wins).
//!
//! Generic types are rejected with a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default, Clone)]
struct SerdeAttrs {
    /// `Some("")` for bare `default`, `Some(path)` for `default = "path"`.
    default: Option<String>,
    skip: bool,
    untagged: bool,
    deny_unknown_fields: bool,
}

struct Field {
    name: String,
    attrs: SerdeAttrs,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    untagged: bool,
    /// Container-level `#[serde(default)]`: absent fields fall back to
    /// the corresponding field of `Self::default()`.
    container_default: bool,
    /// Container-level `#[serde(deny_unknown_fields)]`.
    deny_unknown_fields: bool,
    kind: Kind,
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, ser: bool) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => {
            return format!("compile_error!({msg:?});")
                .parse()
                .expect("literal")
        }
    };
    let code = if ser {
        gen_serialize(&item)
    } else {
        gen_deserialize(&item)
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive generated invalid code: {e:?}\");")
            .parse()
            .expect("literal")
    })
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut container = SerdeAttrs::default();
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    merge_attr(&g.stream(), &mut container);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if *id.to_string() == *"pub" => {
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if *id.to_string() == *"struct" || *id.to_string() == *"enum" => {
                let is_struct = id.to_string() == "struct";
                let name = match tokens.get(i + 1) {
                    Some(TokenTree::Ident(n)) => n.to_string(),
                    _ => return Err("expected type name".into()),
                };
                if matches!(tokens.get(i + 2), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
                    return Err(format!(
                        "serde shim derive does not support generic type `{name}`"
                    ));
                }
                let body = match tokens.get(i + 2) {
                    Some(TokenTree::Group(g)) => g,
                    _ => return Err(format!("expected body for `{name}`")),
                };
                let kind = if is_struct {
                    match body.delimiter() {
                        Delimiter::Brace => Kind::NamedStruct(parse_fields(body.stream())?),
                        Delimiter::Parenthesis => Kind::TupleStruct(count_tuple(body.stream())),
                        _ => return Err(format!("unexpected struct body for `{name}`")),
                    }
                } else {
                    Kind::Enum(parse_variants(body.stream())?)
                };
                return Ok(Item {
                    name,
                    untagged: container.untagged,
                    container_default: container.default.is_some(),
                    deny_unknown_fields: container.deny_unknown_fields,
                    kind,
                });
            }
            _ => i += 1,
        }
    }
    Err("expected a struct or enum".into())
}

/// Fold any `#[serde(...)]` arguments in an attribute token stream into
/// `out`; other attributes (doc comments, lints) are ignored.
fn merge_attr(stream: &TokenStream, out: &mut SerdeAttrs) {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if *id.to_string() == *"serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(args)) = tokens.get(1) else {
        return;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        match &args[i] {
            TokenTree::Ident(id) => match id.to_string().as_str() {
                "skip" | "skip_serializing" | "skip_deserializing" => {
                    out.skip = true;
                    i += 1;
                }
                "untagged" => {
                    out.untagged = true;
                    i += 1;
                }
                "deny_unknown_fields" => {
                    out.deny_unknown_fields = true;
                    i += 1;
                }
                "default" => {
                    if matches!(args.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                        let lit = args.get(i + 2).map(|t| t.to_string()).unwrap_or_default();
                        out.default = Some(lit.trim_matches('"').to_string());
                        i += 3;
                    } else {
                        out.default = Some(String::new());
                        i += 1;
                    }
                }
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
}

fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut attrs = SerdeAttrs::default();
        while matches!(&tokens[i..], [TokenTree::Punct(p), ..] if p.as_char() == '#') {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                merge_attr(&g.stream(), &mut attrs);
                i += 2;
            } else {
                i += 1;
            }
        }
        if i >= tokens.len() {
            break;
        }
        if matches!(&tokens[i], TokenTree::Ident(id) if *id.to_string() == *"pub") {
            i += 1;
            if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, found `{other}`")),
        };
        i += 1;
        if !matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        i += 1;
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
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
        fields.push(Field { name, attrs });
    }
    Ok(fields)
}

fn count_tuple(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut trailing_comma = false;
    for t in &tokens {
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                commas += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        commas
    } else {
        commas + 1
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Variant-level attributes (doc comments etc.) are skipped.
        while matches!(&tokens[i..], [TokenTree::Punct(p), ..] if p.as_char() == '#') {
            i += if tokens.get(i + 1).is_some() { 2 } else { 1 };
        }
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, found `{other}`")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_fields(g.stream())?)
            }
            _ => VariantShape::Unit,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let mut s = String::from("let mut m = ::serde::Map::new();\n");
            for f in fields {
                if f.attrs.skip {
                    continue;
                }
                s.push_str(&format!(
                    "m.insert(::std::string::String::from(\"{0}\"), ::serde::Serialize::serialize(&self.{0}));\n",
                    f.name
                ));
            }
            s.push_str("::serde::Value::Object(m)");
            s
        }
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        let value = if item.untagged {
                            "::serde::Value::Null".to_string()
                        } else {
                            format!(
                                "::serde::Value::String(::std::string::String::from(\"{vname}\"))"
                            )
                        };
                        arms.push_str(&format!("{name}::{vname} => {value},\n"));
                    }
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let payload = if *n == 1 {
                            "::serde::Serialize::serialize(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", items.join(", "))
                        };
                        let value = if item.untagged {
                            payload
                        } else {
                            format!(
                                "{{ let mut m = ::serde::Map::new(); m.insert(::std::string::String::from(\"{vname}\"), {payload}); ::serde::Value::Object(m) }}"
                            )
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {value},\n",
                            binds.join(", ")
                        ));
                    }
                    VariantShape::Struct(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut payload = String::from("{ let mut __m = ::serde::Map::new();\n");
                        for f in fields {
                            if f.attrs.skip {
                                continue;
                            }
                            payload.push_str(&format!(
                                "__m.insert(::std::string::String::from(\"{0}\"), ::serde::Serialize::serialize({0}));\n",
                                f.name
                            ));
                        }
                        payload.push_str("::serde::Value::Object(__m) }");
                        let value = if item.untagged {
                            payload
                        } else {
                            format!(
                                "{{ let mut m = ::serde::Map::new(); m.insert(::std::string::String::from(\"{vname}\"), {payload}); ::serde::Value::Object(m) }}"
                            )
                        };
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {value},\n",
                            binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n\
         fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn field_expr(f: &Field, map_var: &str, ty: &str) -> String {
    if f.attrs.skip {
        return "::std::default::Default::default()".to_string();
    }
    match &f.attrs.default {
        Some(path) => {
            let fallback = if path.is_empty() {
                "::std::default::Default::default()".to_string()
            } else {
                format!("{path}()")
            };
            format!(
                "match ::serde::helpers::opt_field({map_var}, \"{0}\", \"{ty}\")? {{ Some(__v) => __v, None => {fallback} }}",
                f.name
            )
        }
        None => format!(
            "::serde::helpers::req_field({map_var}, \"{0}\", \"{ty}\")?",
            f.name
        ),
    }
}

/// With `deny_unknown_fields`, a check that every key of the object `m`
/// names a (non-skipped) field; empty otherwise.
fn unknown_fields_check(item: &Item, fields: &[Field]) -> String {
    if !item.deny_unknown_fields {
        return String::new();
    }
    let known: Vec<&str> = fields
        .iter()
        .filter(|f| !f.attrs.skip)
        .map(|f| f.name.as_str())
        .collect();
    format!(
        "const __KNOWN: &[&str] = &{known:?};\n\
         for __k in m.keys() {{ if !__KNOWN.contains(&__k.as_str()) {{ \
         return Err(::serde::Error::custom(format!(\"unknown field `{{}}` in {name}; expected one of {expected}\", __k))); }} }}\n",
        name = item.name,
        expected = known
            .iter()
            .map(|k| format!("`{k}`"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) if item.container_default => {
            // Start from `Self::default()` and overwrite the fields the
            // document actually provides (serde's container-default
            // semantics; field-level attributes still win).
            let mut s = format!(
                "let m = ::serde::helpers::as_object(v, \"{name}\")?;\n{}\
                 let mut __out = <{name} as ::std::default::Default>::default();\n",
                unknown_fields_check(item, fields)
            );
            for f in fields {
                if f.attrs.skip {
                    continue;
                }
                if f.attrs.default.is_some() {
                    s.push_str(&format!(
                        "__out.{0} = {1};\n",
                        f.name,
                        field_expr(f, "m", name)
                    ));
                } else {
                    s.push_str(&format!(
                        "if let Some(__v) = ::serde::helpers::opt_field(m, \"{0}\", \"{name}\")? \
                         {{ __out.{0} = __v; }}\n",
                        f.name
                    ));
                }
            }
            s.push_str("Ok(__out)");
            s
        }
        Kind::NamedStruct(fields) => {
            let mut s = format!(
                "let m = ::serde::helpers::as_object(v, \"{name}\")?;\n{}Ok({name} {{\n",
                unknown_fields_check(item, fields)
            );
            for f in fields {
                s.push_str(&format!("{}: {},\n", f.name, field_expr(f, "m", name)));
            }
            s.push_str("})");
            s
        }
        Kind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::deserialize(v)?))")
        }
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__a[{i}])?"))
                .collect();
            format!(
                "let __a = ::serde::helpers::tuple_payload(v, {n}, \"{name}\")?;\nOk({name}({}))",
                items.join(", ")
            )
        }
        Kind::Enum(variants) if item.untagged => {
            let mut s = String::new();
            for v in variants {
                match &v.shape {
                    VariantShape::Tuple(1) => {
                        s.push_str(&format!(
                            "{{ let __attempt: ::std::result::Result<{name}, ::serde::Error> = \
                             (|| Ok({name}::{0}(::serde::Deserialize::deserialize(v)?)))();\n\
                             if let Ok(__x) = __attempt {{ return Ok(__x); }} }}\n",
                            v.name
                        ));
                    }
                    _ => {
                        return format!(
                            "compile_error!(\"serde shim: untagged enum `{name}` may only have newtype variants\");"
                        )
                    }
                }
            }
            s.push_str(&format!(
                "Err(::serde::Error::custom(\"{name}: no untagged variant matched\"))"
            ));
            s
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
                    }
                    VariantShape::Tuple(1) => {
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => Ok({name}::{vname}(::serde::Deserialize::deserialize(__payload)?)),\n"
                        ));
                    }
                    VariantShape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::deserialize(&__a[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{ let __a = ::serde::helpers::tuple_payload(__payload, {n}, \"{name}::{vname}\")?; Ok({name}::{vname}({})) }},\n",
                            items.join(", ")
                        ));
                    }
                    VariantShape::Struct(fields) => {
                        let ty = format!("{name}::{vname}");
                        let mut ctor = format!(
                            "{{ let __m = ::serde::helpers::as_object(__payload, \"{ty}\")?; Ok({name}::{vname} {{ "
                        );
                        for f in fields {
                            ctor.push_str(&format!("{}: {}, ", f.name, field_expr(f, "__m", &ty)));
                        }
                        ctor.push_str("}) },\n");
                        tagged_arms.push_str(&format!("\"{vname}\" => {ctor}"));
                    }
                }
            }
            format!(
                "if let Some(__s) = v.as_str() {{\n\
                 return match __s {{\n{unit_arms}\
                 __other => Err(::serde::helpers::unknown_variant(\"{name}\", __other)),\n}};\n}}\n\
                 let (__tag, __payload) = ::serde::helpers::single_entry(v, \"{name}\")?;\n\
                 match __tag {{\n{tagged_arms}\
                 __other => Err(::serde::helpers::unknown_variant(\"{name}\", __other)),\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n\
         fn deserialize(v: &::serde::Value) -> ::std::result::Result<{name}, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}
