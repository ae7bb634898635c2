//! Offline stand-in for `serde_json`: JSON text <-> the [`Value`] tree of
//! the serde stand-in, plus a [`json!`] literal macro.

#![warn(missing_docs)]

pub use serde::value::{to_json_text, Map, Number, Value};
pub use serde::Error;

use serde::{Deserialize, Serialize};

/// Serialises `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the value-tree model; `Result` kept for API parity.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(to_json_text(&value.as_value(), false))
}

/// Serialises `value` as 2-space-indented JSON.
///
/// # Errors
///
/// Infallible for the value-tree model; `Result` kept for API parity.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(to_json_text(&value.as_value(), true))
}

/// Parses JSON text into any deserialisable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::from_owned(serde::value::parse_json_text(text)?)
}

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Value {
    value.to_value()
}

/// Builds a [`Value`] from a JSON-like literal, interpolating Rust
/// expressions in value position.
///
/// ```
/// let v = serde_json::json!({"name": "x", "nums": [1, 2.5], "nested": {"ok": true}});
/// assert_eq!(v["nums"][1].as_f64(), Some(2.5));
/// ```
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

/// Implementation muncher for [`json!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ----- arrays: accumulate elements into [$($elems:expr,)*] -----
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] true $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Bool(true),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] false $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Bool(false),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($inner)*]),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($inner)*}),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] $next:expr , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last),])
    };

    // ----- objects: munch `"key": value` pairs into $map -----
    (@object $map:ident ()) => {};
    (@object $map:ident ($key:literal : null $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::Value::Null);
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : true $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::Value::Bool(true));
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : false $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::Value::Bool(false));
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : [$($inner:tt)*] $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::json_internal!([$($inner)*]));
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : {$($inner:tt)*} $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::json_internal!({$($inner)*}));
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : $value:expr , $($rest:tt)*)) => {
        $map.insert($key, $crate::json_internal!($value));
        $crate::json_internal!(@object $map ($($rest)*));
    };
    (@object $map:ident ($key:literal : $value:expr)) => {
        $map.insert($key, $crate::json_internal!($value));
    };

    // ----- entry points -----
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([$($tt:tt)*]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)*))
    };
    ({$($tt:tt)*}) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_internal!(@object map ($($tt)*));
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn json_macro_builds_nested_values() {
        let name = "amp1";
        let caps = [1.0_f64, 2.5];
        let v = json!({
            "circuit": name,
            "count": caps.len(),
            "rows": caps.iter().map(|&c| json!([c, c * 2.0])).collect::<Vec<_>>(),
            "nested": {"ok": true, "none": null},
            "empty_arr": [],
            "empty_obj": {},
        });
        assert_eq!(v["circuit"].as_str(), Some("amp1"));
        assert_eq!(v["count"].as_u64(), Some(2));
        assert_eq!(v["rows"][1][1].as_f64(), Some(5.0));
        assert_eq!(v["nested"]["ok"].as_bool(), Some(true));
        assert!(v["nested"]["none"].is_null());
        assert_eq!(v["empty_arr"].as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn string_roundtrip() {
        let v = json!({"a": [1, -2, 3.5], "b": "x"});
        let text = crate::to_string(&v).unwrap();
        let back: crate::Value = crate::from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = crate::to_string_pretty(&v).unwrap();
        let back2: crate::Value = crate::from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }
}
