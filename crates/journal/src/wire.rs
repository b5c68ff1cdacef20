//! The declare-once little-endian byte codec of journal payloads.
//!
//! The journal itself treats payloads as opaque; the service and fleet
//! layers give their record and snapshot types a [`Wire`] impl so every
//! payload has one canonical byte form (byte-comparable snapshots) and
//! decoding failures surface as typed [`WireError`]s instead of panics.
//! Primitives, `String`, `Option<T>` and `Vec<T>` are implemented here
//! once; a tagged enum or a plain struct lists its tags and field order
//! once through [`wire!`](crate::wire!), which generates both
//! directions. Only layouts the macro cannot say (a version byte,
//! parallel vectors under one length) are hand-written `impl Wire`s
//! over the same primitives.

/// A decode failure: the reader ran past the end of the buffer or met a
/// malformed length/UTF-8 field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "wire decode failed at byte {}", self.offset)
    }
}

impl std::error::Error for WireError {}

/// Canonical little-endian encoder.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Finishes, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Appends an `f64` by bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Strict little-endian decoder over a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.off + n > self.buf.len() {
            return Err(WireError { offset: self.off });
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads a `usize` (encoded as `u64`); errors if it overflows.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let off = self.off;
        usize::try_from(self.u64()?).map_err(|_| WireError { offset: off })
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; errors on any byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        let off = self.off;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError { offset: off }),
        }
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let off = self.off;
        let len = self.u32()? as usize;
        self.take(len).map_err(|_| WireError { offset: off })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let off = self.off;
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError { offset: off })
    }

    /// True when every byte has been consumed — decoders check this to
    /// reject trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.off == self.buf.len()
    }

    /// Current offset (for error reporting).
    pub fn offset(&self) -> usize {
        self.off
    }
}

/// Capacity a decoder pre-allocates for at most, whatever element count
/// the (untrusted) bytes declare; a hostile count then fails on the
/// first short read instead of reserving memory for it.
const SEQ_CAPACITY_CAP: usize = 4096;

/// A type with one canonical byte form.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self`.
    fn put(&self, w: &mut ByteWriter);

    /// Reads one value, leaving the reader just past it.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError>;

    /// The canonical encoding as a fresh buffer (a journal payload).
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put(&mut w);
        w.finish()
    }

    /// Strict decode of a whole buffer: trailing bytes are an error.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::get(&mut r)?;
        if r.is_empty() {
            Ok(v)
        } else {
            Err(WireError { offset: r.offset() })
        }
    }
}

macro_rules! wire_primitive {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut ByteWriter) {
                w.$t(*self);
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                r.$t()
            }
        }
    )*};
}
wire_primitive!(u8, u32, u64, usize, f64, bool);

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

/// Presence `bool`, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

/// Element count as `usize`, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        put_seq(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.usize()?;
        get_seq(r, n)
    }
}

/// Appends `items` back to back with no count — for layouts where
/// several sequences share one length written elsewhere.
pub fn put_seq<T: Wire>(items: &[T], w: &mut ByteWriter) {
    for item in items {
        item.put(w);
    }
}

/// Reads `n` values back to back; `n` is untrusted.
pub fn get_seq<T: Wire>(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<T>, WireError> {
    let mut items = Vec::with_capacity(n.min(SEQ_CAPACITY_CAP));
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

/// Field codec for opaque byte strings (`u32` length, then the bytes)
/// — `Vec<u8>` as a [`Wire`] sequence would spend a `u64` count. Named
/// per field in [`wire!`](crate::wire!): `result: Blob`.
pub struct Blob;

impl Blob {
    /// Appends the length-prefixed bytes.
    pub fn put(&self, v: &[u8], w: &mut ByteWriter) {
        w.bytes(v);
    }

    /// Reads length-prefixed bytes.
    pub fn get(&self, r: &mut ByteReader<'_>) -> Result<Vec<u8>, WireError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// Field codec for a closed set of `&'static str` labels: the tag is
/// the label's index in the table. Tag 255 is reserved for a label this
/// build does not know — it is written for any string outside the
/// table (so the append path never fails) and reads back as
/// `"unknown"`.
pub struct Labels(pub &'static [&'static str]);

impl Labels {
    /// Appends the label's one-byte tag.
    pub fn put(&self, label: &str, w: &mut ByteWriter) {
        w.u8(self.0.iter().position(|l| *l == label).map_or(255, |i| i as u8));
    }

    /// Reads a tag back to its label.
    pub fn get(&self, r: &mut ByteReader<'_>) -> Result<&'static str, WireError> {
        let offset = r.offset();
        match r.u8()? {
            255 => Ok("unknown"),
            tag => self.0.get(usize::from(tag)).copied().ok_or(WireError { offset }),
        }
    }
}

/// Implements [`Wire`] for a type from one declaration of its layout.
///
/// `wire! { enum T { 0 => A, 1 => B { x, y }, 2 => C(inner) } }` writes
/// the one-byte tag, then the listed fields in the listed order;
/// `wire! { struct T { x, y } }` writes just the fields. Each field goes
/// through its own type's [`Wire`] impl unless it names a field codec
/// (`result: Blob`, `cause: CAUSES`): any expression with
/// `put(&self, field, w)` / `get(&self, r)`. An unknown tag is a
/// [`WireError`] at the tag's offset.
#[macro_export]
macro_rules! wire {
    (@put $w:ident $f:ident) => { $crate::wire::Wire::put($f, $w) };
    (@put $w:ident $f:ident, $codec:expr) => { $codec.put($f, $w) };
    (@get $r:ident) => { $crate::wire::Wire::get($r)? };
    (@get $r:ident, $codec:expr) => { $codec.get($r)? };
    (@get $r:ident for $f:ident) => { $crate::wire::Wire::get($r)? };
    (enum $ty:ty { $(
        $tag:literal => $variant:ident
            $({ $($f:ident $(: $codec:expr)?),* $(,)? })?
            $(( $($t:ident),* ))?
    ),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::ByteWriter) {
                match self {$(
                    Self::$variant $({ $($f),* })? $(( $($t),* ))? => {
                        w.u8($tag);
                        $($( $crate::wire!(@put w $f $(, $codec)?); )*)?
                        $($( $crate::wire!(@put w $t); )*)?
                    }
                )*}
            }
            fn get(
                r: &mut $crate::wire::ByteReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let offset = r.offset();
                Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $({ $($f: $crate::wire!(@get r $(, $codec)?)),* })?
                        $(( $($crate::wire!(@get r for $t)),* ))?,)*
                    _ => return Err($crate::wire::WireError { offset }),
                })
            }
        }
    };
    (struct $ty:ty { $($f:ident $(: $codec:expr)?),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::ByteWriter) {
                let Self { $($f),* } = self;
                $( $crate::wire!(@put w $f $(, $codec)?); )*
            }
            fn get(
                r: &mut $crate::wire::ByteReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($f: $crate::wire!(@get r $(, $codec)?)),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.u8(7).u32(0xdead_beef).u64(1 << 40).f64(-0.125).bool(true).str("tenant").bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "tenant");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_are_typed() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u64().is_err());
        let mut r2 = ByteReader::new(&[5, 0, 0, 0, 1]);
        assert!(r2.bytes().is_err(), "declared length outruns buffer");
        let mut r3 = ByteReader::new(&[2]);
        assert!(r3.bool().is_err(), "non-boolean byte rejected");
    }
}
