//! Offline derive macros for the serde shim.
//!
//! Real `serde_derive` pulls in `syn`/`quote`; neither is available in this
//! build environment, so this crate hand-parses the item definition from the
//! token stream's textual rendering and emits impls of the shim's
//! `Serialize`/`Deserialize` traits. `Serialize` impls stream, calling the
//! shim serializer's struct, sequence and variant methods field by field;
//! `Deserialize` impls read fields out of a parsed JSON-like `Value` tree.
//!
//! Supported shapes — everything the workspace uses:
//!
//! * structs with named fields (`#[serde(default)]`, `#[serde(with = "m")]`
//!   honored per field; `with` on an enum variant's field is a compile
//!   error);
//! * newtype and tuple structs (newtypes serialize transparently);
//! * enums with unit, tuple, and struct variants (externally tagged, like
//!   serde's default representation).
//!
//! Generics are intentionally unsupported: the macro emits a compile error
//! naming the offending type so the gap is loud, not silent.

use proc_macro::TokenStream;

mod parse;

use parse::{Fields, Item, ItemKind};

/// Derives the shim's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives the shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let text = input.to_string();
    let code = match parse::parse_item(&text) {
        Ok(item) => gen(&item),
        Err(msg) => format!("::std::compile_error!({msg:?});"),
    };
    match code.parse() {
        Ok(ts) => ts,
        Err(e) => format!("::std::compile_error!(\"serde shim codegen error: {e}\");")
            .parse()
            .unwrap_or_default(),
    }
}

/// Emits a `Serialize` impl that feeds the item to the serializer one
/// call at a time: `serialize_struct` and its fields, `serialize_seq` for
/// tuple structs, and one of the four variant methods per enum arm.
fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            let mut calls = String::new();
            for f in fields {
                let n = &f.name;
                let value = match &f.with_module {
                    // `with` modules serialize one field of `Name`; a
                    // wrapper over the whole struct hands them the field
                    // and the same serializer.
                    Some(with) => {
                        calls.push_str(&format!(
                            "struct __With_{n}<'__a>(&'__a {name});\n\
                             impl ::serde::ser::Serialize for __With_{n}<'_> {{\n\
                             fn serialize<__S: ::serde::ser::Serializer>(&self, __s: __S) \
                             -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
                             {with}::serialize(&self.0.{n}, __s)\n}}\n}}\n"
                        ));
                        format!("&__With_{n}(self)")
                    }
                    None => format!("&self.{n}"),
                };
                calls.push_str(&format!(
                    "::serde::ser::SerializeStruct::serialize_field(&mut __s, {n:?}, {value})?;\n"
                ));
            }
            format!(
                "let mut __s = ::serde::ser::Serializer::serialize_struct(\
                 __serializer, {name:?}, {len})?;\n{calls}\
                 ::serde::ser::SerializeStruct::end(__s)",
                len = fields.len()
            )
        }
        ItemKind::Struct(Fields::Tuple(arity)) => match arity {
            0 => "::serde::ser::Serializer::serialize_unit(__serializer)".to_string(),
            1 => format!(
                "::serde::ser::Serializer::serialize_newtype_struct(__serializer, {name:?}, &self.0)"
            ),
            n => {
                let elements: String = (0..*n)
                    .map(|i| {
                        format!("::serde::ser::SerializeSeq::serialize_element(&mut __s, &self.{i})?;\n")
                    })
                    .collect();
                format!(
                    "let mut __s = ::serde::ser::Serializer::serialize_seq(\
                     __serializer, ::std::option::Option::Some({n}))?;\n{elements}\
                     ::serde::ser::SerializeSeq::end(__s)"
                )
            }
        },
        ItemKind::Struct(Fields::Unit) => {
            "::serde::ser::Serializer::serialize_unit(__serializer)".to_string()
        }
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for (index, v) in variants.iter().enumerate() {
                let vname = &v.name;
                let head = format!("__serializer, {name:?}, {index}u32, {vname:?}");
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => \
                         ::serde::ser::Serializer::serialize_unit_variant({head}),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => \
                         ::serde::ser::Serializer::serialize_newtype_variant({head}, __f0),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let fields: String = binds
                            .iter()
                            .map(|b| {
                                format!(
                                    "::serde::ser::SerializeTupleVariant::serialize_field(\
                                     &mut __s, {b})?;\n"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{\n\
                             let mut __s = ::serde::ser::Serializer::serialize_tuple_variant(\
                             {head}, {n})?;\n{fields}\
                             ::serde::ser::SerializeTupleVariant::end(__s)\n}}\n",
                            binds.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        if let Some(f) = fields.iter().find(|f| f.with_module.is_some()) {
                            return format!(
                                "::std::compile_error!(\"serde shim: #[serde(with)] on the \
                                 field `{}` of the variant `{name}::{vname}` is unsupported\");",
                                f.name
                            );
                        }
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let calls: String = binds
                            .iter()
                            .map(|n| {
                                format!(
                                    "::serde::ser::SerializeStructVariant::serialize_field(\
                                     &mut __s, {n:?}, {n})?;\n"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n\
                             let mut __s = ::serde::ser::Serializer::serialize_struct_variant(\
                             {head}, {})?;\n{calls}\
                             ::serde::ser::SerializeStructVariant::end(__s)\n}}\n",
                            binds.join(", "),
                            fields.len()
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::ser::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::ser::Serializer>(&self, __serializer: __S) \
         -> ::std::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n}}\n"
    )
}

/// Expression extracting one named field (shared by structs and struct
/// variants). `source` is a `&Vec<(String, Value)>` expression.
fn named_field_expr(f: &parse::Field, owner: &str, source: &str) -> String {
    let n = &f.name;
    let found = if let Some(with) = &f.with_module {
        format!(
            "{with}::deserialize(::serde::de::ValueDeserializer(__v.clone()))\
             .map_err(<__D::Error as ::serde::de::Error>::custom)?"
        )
    } else {
        "::serde::de::from_value(__v.clone())\
         .map_err(<__D::Error as ::serde::de::Error>::custom)?"
            .to_string()
    };
    let missing = if f.has_default {
        "::std::default::Default::default()".to_string()
    } else {
        format!(
            "return ::std::result::Result::Err(<__D::Error as ::serde::de::Error>::custom(\
             \"missing field `{n}` in `{owner}`\"))"
        )
    };
    format!(
        "match {source}.iter().find(|(__k, _)| __k == {n:?}) {{\n\
         ::std::option::Option::Some((_, __v)) => {found},\n\
         ::std::option::Option::None => {missing},\n}}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: {}", f.name, named_field_expr(f, name, "__entries")))
                .collect();
            format!(
                "let __entries = match __value.into_object() {{\n\
                 ::std::result::Result::Ok(entries) => entries,\n\
                 ::std::result::Result::Err(other) => return ::std::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                 \"expected object for `{name}`, found {{}}\", other.kind()))),\n}};\n\
                 ::std::result::Result::Ok({name} {{\n{}\n}})",
                inits.join(",\n")
            )
        }
        ItemKind::Struct(Fields::Tuple(arity)) => match arity {
            0 => format!("let _ = __value; ::std::result::Result::Ok({name}())"),
            1 => format!(
                "::std::result::Result::Ok({name}(::serde::de::from_value(__value)\
                 .map_err(<__D::Error as ::serde::de::Error>::custom)?))"
            ),
            n => {
                let gets: Vec<String> = (0..*n)
                    .map(|i| {
                        format!(
                            "::serde::de::from_value(__items[{i}].clone())\
                             .map_err(<__D::Error as ::serde::de::Error>::custom)?"
                        )
                    })
                    .collect();
                format!(
                    "let __items = match __value.into_array() {{\n\
                     ::std::result::Result::Ok(items) => items,\n\
                     ::std::result::Result::Err(other) => return ::std::result::Result::Err(\
                     <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                     \"expected array for `{name}`, found {{}}\", other.kind()))),\n}};\n\
                     if __items.len() != {n} {{\n\
                     return ::std::result::Result::Err(<__D::Error as \
                     ::serde::de::Error>::custom(\"wrong tuple arity for `{name}`\"));\n}}\n\
                     ::std::result::Result::Ok({name}({}))",
                    gets.join(", ")
                )
            }
        },
        ItemKind::Struct(Fields::Unit) => {
            format!("let _ = __value; ::std::result::Result::Ok({name})")
        }
        ItemKind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        unit_arms.push_str(&format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}),\n"
                        ));
                        // Also accept `{ "Variant": null }`.
                        tagged_arms.push_str(&format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}),\n"
                        ));
                    }
                    Fields::Tuple(1) => tagged_arms.push_str(&format!(
                        "{vname:?} => ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::de::from_value(__inner)\
                         .map_err(<__D::Error as ::serde::de::Error>::custom)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let gets: Vec<String> = (0..*n)
                            .map(|i| {
                                format!(
                                    "::serde::de::from_value(__items[{i}].clone())\
                                     .map_err(<__D::Error as ::serde::de::Error>::custom)?"
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{vname:?} => {{\n\
                             let __items = match __inner.into_array() {{\n\
                             ::std::result::Result::Ok(items) => items,\n\
                             ::std::result::Result::Err(other) => return ::std::result::Result::Err(\
                             <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                             \"expected array for variant `{vname}`, found {{}}\", \
                             other.kind()))),\n}};\n\
                             if __items.len() != {n} {{\n\
                             return ::std::result::Result::Err(<__D::Error as \
                             ::serde::de::Error>::custom(\"wrong arity for `{vname}`\"));\n}}\n\
                             ::std::result::Result::Ok({name}::{vname}({}))\n}}\n",
                            gets.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!("{}: {}", f.name, named_field_expr(f, vname, "__vfields"))
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{vname:?} => {{\n\
                             let __vfields = match __inner.into_object() {{\n\
                             ::std::result::Result::Ok(entries) => entries,\n\
                             ::std::result::Result::Err(other) => return ::std::result::Result::Err(\
                             <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                             \"expected object for variant `{vname}`, found {{}}\", \
                             other.kind()))),\n}};\n\
                             ::std::result::Result::Ok({name}::{vname} {{\n{}\n}})\n}}\n",
                            inits.join(",\n")
                        ));
                    }
                }
            }
            format!(
                "let mut __value = __value;\n\
                 match &mut __value {{\n\
                 ::serde::__value::Value::String(__s) => match __s.as_str() {{\n{unit_arms}\
                 other => ::std::result::Result::Err(<__D::Error as \
                 ::serde::de::Error>::custom(::std::format!(\
                 \"unknown variant `{{other}}` of `{name}`\"))),\n}},\n\
                 ::serde::__value::Value::Object(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __inner) = match __entries.pop() {{\n\
                 ::std::option::Option::Some(pair) => pair,\n\
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(\"empty enum object\")),\n}};\n\
                 let _ = &__inner;\n\
                 match __tag.as_str() {{\n{tagged_arms}\
                 other => ::std::result::Result::Err(<__D::Error as \
                 ::serde::de::Error>::custom(::std::format!(\
                 \"unknown variant `{{other}}` of `{name}`\"))),\n}}\n}}\n\
                 other => ::std::result::Result::Err(<__D::Error as \
                 ::serde::de::Error>::custom(::std::format!(\
                 \"expected string or single-key object for `{name}`, found {{}}\", \
                 other.kind()))),\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::de::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::de::Deserializer<'de>>(__deserializer: __D) \
         -> ::std::result::Result<Self, __D::Error> {{\n\
         let __value = ::serde::de::Deserializer::into_value(__deserializer)?;\n\
         {body}\n}}\n}}\n"
    )
}
