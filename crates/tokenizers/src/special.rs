//! Recipe-structure special tokens.
//!
//! The paper preprocesses RecipeDB into "one long string with all the
//! recipes with different tags that differentiate between different
//! sections of the recipe" (Fig. 3), in the RecipeGPT style, and adds
//! dedicated tokens for fractions and numbers so quantities survive
//! tokenization as atomic, learnable units.

/// Padding.
pub const PAD: &str = "<PAD>";
/// Unknown token.
pub const UNK: &str = "<UNK>";
/// Start of a recipe record.
pub const RECIPE_START: &str = "<RECIPE_START>";
/// End of a recipe record.
pub const RECIPE_END: &str = "<RECIPE_END>";
/// Start of the title section.
pub const TITLE_START: &str = "<TITLE_START>";
/// End of the title section.
pub const TITLE_END: &str = "<TITLE_END>";
/// Start of the ingredient list.
pub const INGR_START: &str = "<INGR_START>";
/// Separator between ingredients.
pub const NEXT_INGR: &str = "<NEXT_INGR>";
/// End of the ingredient list.
pub const INGR_END: &str = "<INGR_END>";
/// Start of the instruction list.
pub const INSTR_START: &str = "<INSTR_START>";
/// Separator between instruction steps.
pub const NEXT_INSTR: &str = "<NEXT_INSTR>";
/// End of the instruction list.
pub const INSTR_END: &str = "<INSTR_END>";
/// Start of the input-ingredients prompt section (what the user typed).
pub const INPUT_START: &str = "<INPUT_START>";
/// Separator between prompt ingredients.
pub const NEXT_INPUT: &str = "<NEXT_INPUT>";
/// End of the input-ingredients prompt section.
pub const INPUT_END: &str = "<INPUT_END>";

/// Every structural tag, in the id order tokenizers register them.
pub const ALL_SPECIAL_TAGS: &[&str] = &[
    PAD,
    UNK,
    RECIPE_START,
    RECIPE_END,
    TITLE_START,
    TITLE_END,
    INGR_START,
    NEXT_INGR,
    INGR_END,
    INSTR_START,
    NEXT_INSTR,
    INSTR_END,
    INPUT_START,
    NEXT_INPUT,
    INPUT_END,
];

/// Common cooking fractions that get atomic tokens (the paper's "special
/// tokens to account the fractions"). Maps surface text → token.
pub const FRACTIONS: &[(&str, &str)] = &[
    ("1/2", "<FRAC_1_2>"),
    ("1/3", "<FRAC_1_3>"),
    ("2/3", "<FRAC_2_3>"),
    ("1/4", "<FRAC_1_4>"),
    ("3/4", "<FRAC_3_4>"),
    ("1/8", "<FRAC_1_8>"),
    ("3/8", "<FRAC_3_8>"),
    ("5/8", "<FRAC_5_8>"),
    ("7/8", "<FRAC_7_8>"),
    ("1/16", "<FRAC_1_16>"),
];

/// All fraction tokens (the token side of [`FRACTIONS`]).
pub fn fraction_tokens() -> Vec<&'static str> {
    FRACTIONS.iter().map(|&(_, t)| t).collect()
}

/// Replace fraction literals in text with their atomic tokens.
///
/// Longer fractions are substituted first so `1/16` is not shadowed by
/// `1/1` prefixes of other patterns.
pub fn encode_fractions(text: &str) -> String {
    let mut pairs: Vec<(&str, &str)> = FRACTIONS.to_vec();
    pairs.sort_by_key(|(s, _)| std::cmp::Reverse(s.len()));
    let mut out = text.to_string();
    for (surface, token) in pairs {
        out = out.replace(surface, &format!(" {token} "));
    }
    collapse_spaces(&out)
}

/// Replace fraction tokens back with their surface text.
pub fn decode_fractions(text: &str) -> String {
    let mut out = text.to_string();
    for &(surface, token) in FRACTIONS {
        out = out.replace(token, surface);
    }
    out
}

/// Collapse runs of whitespace to single spaces and trim.
pub fn collapse_spaces(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Split `text` into alternating plain segments and special tokens, so
/// tokenizers can treat tags atomically. Returns `(segment, is_special)`
/// pairs in order; empty plain segments are dropped.
///
/// One left-to-right pass: a tag is tried only at a byte that starts
/// one, and the earliest match wins; at one position the longest tag
/// wins, the first listed on a tie in length. An empty tag matches
/// nothing.
pub fn split_on_specials<'a>(text: &'a str, specials: &[&str]) -> Vec<(&'a str, bool)> {
    let mut starts_a_tag = [false; 256];
    for sp in specials {
        if let Some(&b) = sp.as_bytes().first() {
            starts_a_tag[b as usize] = true;
        }
    }
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    // Start of the plain segment not yet emitted.
    let mut plain = 0;
    let mut i = 0;
    while i < bytes.len() {
        if starts_a_tag[bytes[i] as usize] {
            let rest = &bytes[i..];
            let mut longest = 0;
            for sp in specials {
                if sp.len() > longest && rest.starts_with(sp.as_bytes()) {
                    longest = sp.len();
                }
            }
            // A tag is whole UTF-8, and its first byte is not a
            // continuation byte, so `i` and `i + longest` are char
            // boundaries.
            if longest > 0 {
                if i > plain {
                    out.push((&text[plain..i], false));
                }
                out.push((&text[i..i + longest], true));
                i += longest;
                plain = i;
                continue;
            }
        }
        i += 1;
    }
    if plain < bytes.len() {
        out.push((&text[plain..], false));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_roundtrip() {
        let text = "add 1/2 cup sugar and 1/16 tsp salt";
        let enc = encode_fractions(text);
        assert!(enc.contains("<FRAC_1_2>"), "{enc}");
        assert!(enc.contains("<FRAC_1_16>"), "{enc}");
        assert!(!enc.contains("1/2"));
        let dec = decode_fractions(&enc);
        assert_eq!(collapse_spaces(&dec), collapse_spaces(text));
    }

    #[test]
    fn sixteenth_not_shadowed() {
        let enc = encode_fractions("1/16");
        assert_eq!(enc.trim(), "<FRAC_1_16>");
    }

    #[test]
    fn split_isolates_tags() {
        let text = format!("{TITLE_START} pasta {TITLE_END}{INGR_START}salt{INGR_END}");
        let parts = split_on_specials(&text, ALL_SPECIAL_TAGS);
        let specials: Vec<&str> = parts.iter().filter(|(_, s)| *s).map(|(t, _)| *t).collect();
        assert_eq!(specials, vec![TITLE_START, TITLE_END, INGR_START, INGR_END]);
        let plains: Vec<&str> = parts.iter().filter(|(_, s)| !*s).map(|(t, _)| *t).collect();
        assert_eq!(plains, vec![" pasta ", "salt"]);
    }

    #[test]
    fn split_plain_text_is_single_segment() {
        let parts = split_on_specials("no tags here", ALL_SPECIAL_TAGS);
        assert_eq!(parts, vec![("no tags here", false)]);
    }

    #[test]
    fn tags_are_unique() {
        let mut set = std::collections::HashSet::new();
        for &t in ALL_SPECIAL_TAGS {
            assert!(set.insert(t), "duplicate tag {t}");
        }
        for t in fraction_tokens() {
            assert!(set.insert(t), "fraction token collides with tag {t}");
        }
    }
}
