//! Codec identities and the registry a decoder resolves them from.
//!
//! A transmitted Easz container names its inner codec by a one-byte
//! [`CodecId`] instead of trusting the receiver to pick the matching codec
//! out of band (which silently misdecodes on mismatch). The server holds a
//! [`CodecRegistry`] mapping ids to live [`ImageCodec`] instances and looks
//! the codec up *from the bitstream header*.

use crate::codec::ImageCodec;
use crate::{BpgLikeCodec, JpegLikeCodec};
use std::fmt;

/// Stable one-byte wire identifier of an inner codec.
///
/// Ids `0..=63` are reserved for codecs shipped in this workspace; embedders
/// registering their own codecs should use `64..=255`. Ids 3–6 name the
/// simulated learned codecs of `easz-testbed`: reserved, because wire ids
/// are append-only, but not in [`CodecRegistry::with_defaults`], so a
/// default decoder answers them as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodecId(pub u8);

impl CodecId {
    /// Reserved "no wire identity" id; not registrable.
    pub const UNKNOWN: CodecId = CodecId(0);
    /// [`JpegLikeCodec`].
    pub const JPEG_LIKE: CodecId = CodecId(1);
    /// [`BpgLikeCodec`].
    pub const BPG_LIKE: CodecId = CodecId(2);
    /// Reserved: simulated Ballé factorized prior (`easz-testbed`).
    pub const BALLE_FACTORIZED: CodecId = CodecId(3);
    /// Reserved: simulated Ballé hyperprior (`easz-testbed`).
    pub const BALLE_HYPERPRIOR: CodecId = CodecId(4);
    /// Reserved: simulated MBT (`easz-testbed`).
    pub const MBT: CodecId = CodecId(5);
    /// Reserved: simulated Cheng-Anchor (`easz-testbed`).
    pub const CHENG_ANCHOR: CodecId = CodecId(6);

    /// The raw wire byte.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec#{}", self.0)
    }
}

/// Maps [`CodecId`]s to live codecs so a decoder can resolve the inner
/// codec named by a container header.
///
/// ```
/// use easz_codecs::{CodecId, CodecRegistry};
/// let registry = CodecRegistry::with_defaults();
/// let codec = registry.get(CodecId::JPEG_LIKE).expect("registered");
/// assert_eq!(codec.name(), "jpeg-like");
/// ```
pub struct CodecRegistry {
    // Linear scan over a handful of entries beats hashing at this size and
    // keeps iteration order = registration order for `ids()`.
    entries: Vec<(CodecId, Box<dyn ImageCodec>)>,
}

impl fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodecRegistry").field("ids", &self.ids()).finish()
    }
}

impl Default for CodecRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl CodecRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self { entries: Vec::new() }
    }

    /// A registry holding every codec shipped in this crate under its
    /// well-known id: [`JpegLikeCodec`] and [`BpgLikeCodec`].
    pub fn with_defaults() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(JpegLikeCodec::new()));
        r.register(Box::new(BpgLikeCodec::new()));
        r
    }

    /// Registers a codec under its own [`ImageCodec::id`].
    ///
    /// # Panics
    ///
    /// Panics if the codec reports [`CodecId::UNKNOWN`] or the id is
    /// already taken — both are programming errors, not wire input.
    pub fn register(&mut self, codec: Box<dyn ImageCodec>) -> &mut Self {
        let id = codec.id();
        assert_ne!(id, CodecId::UNKNOWN, "codec {:?} has no wire identity", codec.name());
        assert!(
            self.get(id).is_none(),
            "codec id {id} already registered (as {:?})",
            self.get(id).map(|c| c.name())
        );
        self.entries.push((id, codec));
        self
    }

    /// Resolves an id to its codec, if registered.
    pub fn get(&self, id: CodecId) -> Option<&dyn ImageCodec> {
        self.entries.iter().find(|(i, _)| *i == id).map(|(_, c)| c.as_ref())
    }

    /// All registered ids, in registration order.
    pub fn ids(&self) -> Vec<CodecId> {
        self.entries.iter().map(|(i, _)| *i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_shipped_codecs() {
        let r = CodecRegistry::with_defaults();
        assert_eq!(r.ids(), [CodecId::JPEG_LIKE, CodecId::BPG_LIKE]);
        for id in r.ids() {
            assert_eq!(r.get(id).map(|c| c.id()), Some(id), "{id} registered under a foreign id");
        }
        // The reserved simulated ids are not served by default.
        for id in [
            CodecId::UNKNOWN,
            CodecId::BALLE_FACTORIZED,
            CodecId::BALLE_HYPERPRIOR,
            CodecId::MBT,
            CodecId::CHENG_ANCHOR,
            CodecId(200),
        ] {
            assert!(r.get(id).is_none(), "{id} must not be in the default registry");
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_is_a_programming_error() {
        let mut r = CodecRegistry::with_defaults();
        r.register(Box::new(JpegLikeCodec::new()));
    }

    #[test]
    fn empty_registry_resolves_nothing() {
        let r = CodecRegistry::empty();
        assert!(r.ids().is_empty());
        assert!(r.get(CodecId::JPEG_LIKE).is_none());
    }
}
