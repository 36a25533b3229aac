//! Clean twin of orphan.rs: the same items, named by a sibling non-test fn.
pub use self::reexported as alias;

pub fn tested_only() -> u32 {
    1
}

pub fn quoted_only() -> &'static str {
    "quoted_only"
}

pub fn reexported() {}

fn sibling() -> usize {
    reexported();
    quoted_only().len() + tested_only() as usize
}
