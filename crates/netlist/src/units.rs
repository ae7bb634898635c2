//! SPICE engineering-notation number parsing and formatting.

use std::fmt::{self, Write};

/// Error returned when a SPICE number cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseValueError {
    text: String,
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spice number '{}'", self.text)
    }
}

impl std::error::Error for ParseValueError {}

/// Parses a SPICE-style number with an optional engineering suffix.
///
/// Recognised suffixes (case-insensitive): `t g meg k m u n p f a`.
/// Trailing unit garbage after the suffix (e.g. `30nm`, `10pF`) is ignored,
/// matching common SPICE dialects.
///
/// # Errors
///
/// Returns [`ParseValueError`] when the numeric prefix is missing or
/// malformed.
///
/// # Examples
///
/// ```
/// use paragraph_netlist::parse_value;
///
/// assert_eq!(parse_value("2.5k").unwrap(), 2500.0);
/// assert!((parse_value("30n").unwrap() - 30e-9).abs() < 1e-15);
/// assert_eq!(parse_value("1meg").unwrap(), 1e6);
/// assert!((parse_value("10pF").unwrap() - 10e-12).abs() < 1e-18);
/// ```
pub fn parse_value(text: &str) -> Result<f64, ParseValueError> {
    let trimmed = text.trim();
    let err = || ParseValueError {
        text: trimmed.to_owned(),
    };
    if trimmed.is_empty() {
        return Err(err());
    }
    // Split numeric prefix from suffix.
    let mut split = trimmed.len();
    for (i, c) in trimmed.char_indices() {
        if c.is_ascii_digit() || c == '.' || c == '+' || c == '-' {
            continue;
        }
        // 'e'/'E' may be scientific notation if followed by digits/sign.
        if (c == 'e' || c == 'E')
            && trimmed[i + 1..]
                .chars()
                .next()
                .is_some_and(|n| n.is_ascii_digit() || n == '+' || n == '-')
        {
            continue;
        }
        split = i;
        break;
    }
    let (num, suffix) = trimmed.split_at(split);
    let base: f64 = num.parse().map_err(|_| err())?;
    let mult = if starts_with_ignore_case(suffix, "meg") {
        1e6
    } else {
        match suffix.chars().next().map(|c| c.to_ascii_lowercase()) {
            None => 1.0,
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            Some('a') => 1e-18,
            // Unknown alpha suffix (e.g. "V", "ohm"): treat as plain units.
            Some(c) if c.is_ascii_alphabetic() => 1.0,
            Some(_) => return Err(err()),
        }
    };
    Ok(base * mult)
}

/// Formats a value with the closest engineering suffix (the inverse of
/// [`parse_value`], up to rounding).
///
/// # Examples
///
/// ```
/// use paragraph_netlist::format_value;
///
/// assert_eq!(format_value(2500.0), "2.5k");
/// assert_eq!(format_value(30e-9), "30n");
/// assert_eq!(format_value(0.0), "0");
/// ```
pub fn format_value(value: f64) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Appends [`format_value`]'s text for `value` to `out`, without a
/// temporary string.
pub(crate) fn write_value(out: &mut String, value: f64) {
    if value == 0.0 {
        out.push('0');
        return;
    }
    const SCALES: [(f64, &str); 10] = [
        (1e12, "t"),
        (1e9, "g"),
        (1e6, "meg"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "u"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
    ];
    let abs = value.abs();
    let (scale, suffix) = SCALES
        .into_iter()
        .find(|(scale, _)| abs >= scale * 0.9999999)
        .unwrap_or((1e-18, "a"));
    // Six decimals, trailing zeros and a bare point trimmed. A finite
    // value always prints a point, so the trim stops inside the number.
    let _ = write!(out, "{:.6}", value / scale);
    out.truncate(out.trim_end_matches('0').trim_end_matches('.').len());
    out.push_str(suffix);
}

/// ASCII case-insensitive `text.starts_with(prefix)`, copy-free.
pub(crate) fn starts_with_ignore_case(text: &str, prefix: &str) -> bool {
    text.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_suffixes() {
        for (text, expected) in [
            ("1t", 1e12),
            ("1g", 1e9),
            ("1meg", 1e6),
            ("1MEG", 1e6),
            ("1k", 1e3),
            ("1", 1.0),
            ("1m", 1e-3),
            ("1u", 1e-6),
            ("1n", 1e-9),
            ("1p", 1e-12),
            ("1f", 1e-15),
            ("1a", 1e-18),
        ] {
            assert_eq!(parse_value(text).unwrap(), expected, "{text}");
        }
    }

    #[test]
    fn parses_scientific_notation() {
        assert_eq!(parse_value("1.5e-9").unwrap(), 1.5e-9);
        assert_eq!(parse_value("2E3").unwrap(), 2000.0);
        assert_eq!(parse_value("-4.0e+2").unwrap(), -400.0);
    }

    #[test]
    fn ignores_unit_tails() {
        assert!((parse_value("30nm").unwrap() - 30e-9).abs() < 1e-15);
        assert!((parse_value("10pF").unwrap() - 10e-12).abs() < 1e-18);
        assert_eq!(parse_value("5V").unwrap(), 5.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("").is_err());
        assert!(parse_value("abc").is_err());
        assert!(parse_value("--3").is_err());
    }

    #[test]
    fn format_roundtrips_through_parse() {
        for v in [0.0, 1.0, 2500.0, 30e-9, 4.7e-12, 1.2e6, -3.3, 0.5e-15] {
            let s = format_value(v);
            let back = parse_value(&s).unwrap();
            let err = (back - v).abs();
            assert!(err <= v.abs() * 1e-6 + 1e-24, "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn negative_values_format() {
        assert_eq!(format_value(-2500.0), "-2.5k");
    }
}
