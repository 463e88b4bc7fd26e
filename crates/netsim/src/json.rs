//! The byte-level JSON writer behind every line this crate emits on a hot
//! path or pins byte for byte: trace JSONL ([`crate::trace`]), `prof/v1`
//! ([`crate::prof`]) and `audit/v1` ([`crate::audit`]).
//!
//! Integers are written by hand (two digits per step from a table), strings
//! are copied in runs between the bytes that need an escape, and structure
//! is byte literals — nothing goes through `core::fmt`. A writer is anything
//! that takes bytes ([`Out`]): a growing `Vec<u8>`, or a [`Line`] on the
//! stack that a fixed-shape record is built in and appended from in one
//! copy.

/// Where JSON bytes go.
pub(crate) trait Out {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Twenty writable bytes past the end — room for any `u64` in decimal —
    /// of which [`keep`](Self::keep) then appends the first few.
    fn window(&mut self) -> &mut [u8; 20];

    /// Append the first `n` bytes of the last [`window`](Self::window).
    fn keep(&mut self, n: usize);
}

impl Out for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn window(&mut self) -> &mut [u8; 20] {
        self.resize(self.len() + 20, 0);
        self.last_chunk_mut().expect("just grown by twenty")
    }

    fn keep(&mut self, n: usize) {
        self.truncate(self.len() - 20 + n);
    }
}

/// A line under construction in `N` bytes that are not the heap's: a
/// literal is a copy of a length the compiler knows, an integer's digits are
/// written where they go. The caller sizes `N` for the longest line its
/// record shape can produce plus an integer's twenty bytes; writing past it
/// is a bug and panics.
pub(crate) struct Line<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Line<N> {
    pub(crate) fn new() -> Self {
        Line { buf: [0; N], len: 0 }
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl<const N: usize> Out for Line<N> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    #[inline]
    fn window(&mut self) -> &mut [u8; 20] {
        self.buf[self.len..].first_chunk_mut().expect("a line is sized with an integer's width to spare")
    }

    #[inline]
    fn keep(&mut self, n: usize) {
        self.len += n;
    }
}

const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// `v` in decimal.
#[inline]
pub(crate) fn u64(out: &mut impl Out, mut v: u64) {
    let n = v.checked_ilog10().map_or(1, |log| log as usize + 1);
    let digits = out.window();
    let mut at = n;
    let mut pair = |at: &mut usize, two_digits: u64| {
        let from = two_digits as usize * 2;
        *at -= 2;
        digits[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[from..from + 2]);
    };
    // Four digits per division while there are that many.
    while v >= 10_000 {
        let low = v % 10_000;
        v /= 10_000;
        pair(&mut at, low % 100);
        pair(&mut at, low / 100);
    }
    if v >= 100 {
        pair(&mut at, v % 100);
        v /= 100;
    }
    if v >= 10 {
        pair(&mut at, v);
    } else {
        digits[0] = b'0' + v as u8;
    }
    out.keep(n);
}

/// `literal` — structure, already JSON — then `v` in decimal: the hot
/// path's `,"key":v` with the key known at compile time.
#[inline]
pub(crate) fn num(out: &mut impl Out, literal: &[u8], v: u64) {
    out.put(literal);
    u64(out, v);
}

/// `s` as a quoted JSON string: `"` and `\` escaped, a newline as `\n`,
/// other control characters as `\u00XX`, everything else — non-ASCII
/// included — as it is.
pub(crate) fn string(out: &mut impl Out, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let escaped = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    let bytes = s.as_bytes();
    out.put(b"\"");
    let mut from = 0;
    // Most strings — every name and label the engine itself writes — need
    // no escape: one pass to see that, one copy.
    if bytes.iter().any(|&b| escaped(b)) {
        for (i, &b) in bytes.iter().enumerate() {
            if !escaped(b) {
                continue;
            }
            out.put(&bytes[from..i]);
            match b {
                b'"' => out.put(b"\\\""),
                b'\\' => out.put(b"\\\\"),
                b'\n' => out.put(b"\\n"),
                _ => out.put(&[b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]),
            }
            from = i + 1;
        }
    }
    out.put(&bytes[from..]);
    out.put(b"\"");
}

/// `,"key":` — `key` is written as it is and must need no escape.
#[inline]
pub(crate) fn key(out: &mut impl Out, key: &str) {
    out.put(b",\"");
    out.put(key.as_bytes());
    out.put(b"\":");
}

/// `,"key":v`.
pub(crate) fn field_u64(out: &mut impl Out, k: &str, v: u64) {
    key(out, k);
    u64(out, v);
}

/// `,"key":"s"`, `s` escaped.
pub(crate) fn field_str(out: &mut impl Out, k: &str, s: &str) {
    key(out, k);
    string(out, s);
}

/// The finished document as a `String`.
pub(crate) fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the writer copies `str`s and ASCII literals")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_match_display_at_every_width() {
        let mut v = 0u64;
        let mut samples = vec![0, 9, 10, 99, 100, 101, u64::MAX, u64::MAX - 1];
        for _ in 0..19 {
            v = v * 10 + 7;
            samples.extend([v, v + 2, v - 7]);
        }
        for v in samples {
            let mut out = Vec::new();
            u64(&mut out, v);
            assert_eq!(into_string(out), v.to_string());
        }
    }

    #[test]
    fn strings_escape_what_json_must_and_nothing_else() {
        let mut out = Vec::new();
        string(&mut out, "a\"b\\c\nd\te\u{1}f\u{1f}g é ✓");
        assert_eq!(into_string(out), "\"a\\\"b\\\\c\\nd\\u0009e\\u0001f\\u001fg é ✓\"");
        let mut out = Vec::new();
        string(&mut out, "");
        field_u64(&mut out, "n", 7);
        field_str(&mut out, "s", "\\");
        assert_eq!(into_string(out), "\"\",\"n\":7,\"s\":\"\\\\\"");
    }

    #[test]
    fn a_stack_line_takes_what_fits() {
        let mut line = Line::<{ 5 + 20 + 20 }>::new();
        for v in [u64::MAX, 0, 7, u64::MAX >> 4] {
            line.clear();
            line.put(b"{\"t\":");
            u64(&mut line, v);
            assert_eq!(line.bytes(), format!("{{\"t\":{v}").as_bytes());
        }
    }
}
