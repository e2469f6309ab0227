//! Small helpers over the workspace's `serde::Value` JSON model.

use serde::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::F64(x)
}

pub fn int(x: u64) -> Value {
    Value::U64(x)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn nums(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::F64(x)).collect())
}

/// Named numbers as a JSON object, in the given order.
pub fn num_map(entries: &[(String, f64)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect(),
    )
}

pub fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map().map_or(&Value::Null, |m| serde::field(m, key))
}

pub fn get_f64(v: &Value, key: &str) -> f64 {
    get(v, key).as_f64().unwrap_or(f64::NAN)
}

pub fn get_u64(v: &Value, key: &str) -> u64 {
    get(v, key).as_u64().unwrap_or(0)
}

pub fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    match get(v, key) {
        Value::Str(s) => s,
        _ => "",
    }
}

pub fn get_bool(v: &Value, key: &str) -> bool {
    matches!(get(v, key), Value::Bool(true))
}

pub fn get_nums(v: &Value, key: &str) -> Vec<f64> {
    get(v, key)
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Entries of a JSON object whose values are numbers.
pub fn get_num_map(v: &Value, key: &str) -> Vec<(String, f64)> {
    get(v, key)
        .as_map()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect()
        })
        .unwrap_or_default()
}

pub fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

pub fn to_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value always serializes")
}
