//! Word splitting for the word-level tokenizer. Special tags are
//! preserved verbatim — splitting runs on tag-free segments.

/// Split a tag-free segment into word tokens (whitespace separated).
pub fn split_words(text: &str) -> Vec<&str> {
    text.split_whitespace().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_words_on_normalized() {
        assert_eq!(
            split_words("boil water ; add salt"),
            vec!["boil", "water", ";", "add", "salt"]
        );
    }
}
