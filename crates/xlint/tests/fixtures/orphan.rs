//! `orphan-pub-item` fixture: three `pub` fns that only a unit test, a
//! string literal (and this comment: quoted_only) or a `pub use` names.
pub use self::reexported as alias;

pub fn tested_only() -> u32 {
    1
}

pub fn quoted_only() -> &'static str {
    "quoted_only() is named here, inside a string"
}

pub fn reexported() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::tested_only(), 1);
    }
}
