//! XML text/attribute escaping and unescaping.

use std::fmt;

/// Escapes a string for use as XML character data (`&`, `<`, `>`).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_text(&mut out, s);
    out
}

/// Escapes a string for use inside a double-quoted XML attribute.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_attr(&mut out, s);
    out
}

/// Writes `s` to `out` escaped as XML character data, without building
/// the escaped string.
pub(crate) fn write_text<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    write_escaped(out, s, false)
}

/// Writes `s` to `out` escaped for a double-quoted XML attribute, without
/// building the escaped string.
pub(crate) fn write_attr<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    write_escaped(out, s, true)
}

/// Copies the runs between special characters straight through. The
/// special characters are ASCII, so every cut falls on a char boundary.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str, attr: bool) -> fmt::Result {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\'' if attr => "&apos;",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        out.write_str(entity)?;
        start = i + 1;
    }
    out.write_str(&s[start..])
}

/// Resolves the five predefined XML entities plus decimal/hex character
/// references. Unknown entities are reported as errors.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i + 1..];
        let end = rest
            .find(';')
            .ok_or_else(|| format!("unterminated entity at byte {i}"))?;
        let name = &rest[..end];
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| format!("bad hex character reference &{name};"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point in &{name};"))?,
                );
            }
            _ if name.starts_with('#') => {
                let code = name[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference &{name};"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point in &{name};"))?,
                );
            }
            _ => return Err(format!("unknown entity &{name};")),
        }
        // Skip over the consumed entity body.
        for _ in 0..end + 1 {
            chars.next();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_text() {
        let s = "a < b && c > \"d\"";
        assert_eq!(unescape(&escape_text(s)).unwrap(), s);
    }

    #[test]
    fn escape_roundtrip_attr() {
        let s = "it's a <tag> & \"quote\"";
        assert_eq!(unescape(&escape_attr(s)).unwrap(), s);
    }

    #[test]
    fn numeric_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;").unwrap(), "ABc");
    }

    #[test]
    fn unknown_entity_is_an_error() {
        assert!(unescape("&nbsp;").is_err());
        assert!(unescape("&unterminated").is_err());
        assert!(unescape("&#xZZ;").is_err());
    }

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(unescape("hello world").unwrap(), "hello world");
        assert_eq!(escape_text("hello"), "hello");
    }
}
