//! Bidirectional token ↔ id vocabulary with reserved special tokens.

use ratatouille_util::collections::{det_map, DetMap};

use crate::special;

/// A dense `0..len` vocabulary. Ids `0..` are assigned in registration
/// order; every vocabulary starts with [`special::ALL_SPECIAL_TAGS`] and
/// the fraction tokens, so special ids are identical across tokenizers.
#[derive(Debug, Clone)]
pub struct Vocab {
    token_to_id: DetMap<String, u32>,
    id_to_token: Vec<String>,
}

impl Vocab {
    /// A vocabulary pre-seeded with all special and fraction tokens.
    pub fn with_specials() -> Self {
        let mut v = Vocab {
            token_to_id: det_map(),
            id_to_token: Vec::new(),
        };
        for &tag in special::ALL_SPECIAL_TAGS {
            v.add(tag);
        }
        for tok in special::fraction_tokens() {
            v.add(tok);
        }
        v
    }

    /// Add a token if absent; returns its id either way.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_to_id.get(token) {
            return id;
        }
        let id = self.id_to_token.len() as u32;
        self.token_to_id.insert(token.to_string(), id);
        self.id_to_token.push(token.to_string());
        id
    }

    /// Id for a token, if present.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.token_to_id.get(token).copied()
    }

    /// Token for an id, if in range.
    pub fn token(&self, id: u32) -> Option<&str> {
        self.id_to_token.get(id as usize).map(String::as_str)
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Id of [`special::PAD`] (always 0 by construction).
    pub fn pad_id(&self) -> u32 {
        self.id(special::PAD).expect("vocab built without specials")
    }

    /// Id of [`special::UNK`].
    pub fn unk_id(&self) -> u32 {
        // xlint: allow(transitive-panic-in-request-path): `with_specials` registers UNK and is the only constructor, so every vocabulary holds it
        self.id(special::UNK).expect("vocab built without specials")
    }

    /// Iterate `(id, token)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.id_to_token
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_have_stable_ids() {
        let a = Vocab::with_specials();
        let b = Vocab::with_specials();
        assert_eq!(a.pad_id(), 0);
        assert_eq!(a.unk_id(), 1);
        assert_eq!(a.id(special::RECIPE_START), b.id(special::RECIPE_START));
        assert_eq!(a.len(), special::ALL_SPECIAL_TAGS.len() + special::FRACTIONS.len());
    }

    #[test]
    fn add_is_idempotent() {
        let mut v = Vocab::with_specials();
        let id1 = v.add("flour");
        let id2 = v.add("flour");
        assert_eq!(id1, id2);
        assert_eq!(v.token(id1), Some("flour"));
    }

    #[test]
    fn roundtrip_all_ids() {
        let mut v = Vocab::with_specials();
        v.add("salt");
        v.add("pepper");
        for (id, tok) in v.clone().iter() {
            assert_eq!(v.id(tok), Some(id));
        }
    }

    #[test]
    fn unknown_lookups_are_none() {
        let v = Vocab::with_specials();
        assert_eq!(v.id("nonexistent"), None);
        assert_eq!(v.token(9999), None);
    }
}
