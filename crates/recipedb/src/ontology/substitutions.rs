//! Ingredient substitutions — the practical side of culinary-space
//! exploration: what can stand in for what, and at what ratio.
//!
//! Used by downstream applications (e.g. dietary adaptation: swap butter
//! for coconut oil to veganize) and validated against the ontology so a
//! substitution never dangles.

/// One directed substitution rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Substitution {
    /// Ingredient being replaced.
    pub from: &'static str,
    /// Ingredient standing in.
    pub to: &'static str,
    /// Quantity multiplier (1 unit of `from` ≈ `ratio` units of `to`).
    pub ratio: f32,
    /// When this substitution is appropriate.
    pub note: &'static str,
}

/// The substitution catalog (both directions are listed explicitly when
/// valid — ratios are not generally symmetric).
pub const SUBSTITUTIONS: &[Substitution] = &[
    Substitution { from: "butter", to: "coconut oil", ratio: 1.0, note: "vegan baking/sautéing" },
    Substitution { from: "butter", to: "olive oil", ratio: 0.75, note: "savory cooking" },
    Substitution { from: "butter", to: "ghee", ratio: 1.0, note: "higher smoke point" },
    Substitution { from: "cream", to: "coconut milk", ratio: 1.0, note: "dairy-free curries/soups" },
    Substitution { from: "milk", to: "coconut milk", ratio: 1.0, note: "dairy-free" },
    Substitution { from: "yogurt", to: "cream", ratio: 1.0, note: "richer, less tang" },
    Substitution { from: "sugar", to: "honey", ratio: 0.75, note: "reduce other liquid slightly" },
    Substitution { from: "sugar", to: "maple syrup", ratio: 0.75, note: "reduce other liquid slightly" },
    Substitution { from: "sugar", to: "jaggery", ratio: 1.0, note: "south-asian desserts" },
    Substitution { from: "honey", to: "maple syrup", ratio: 1.0, note: "vegan" },
    Substitution { from: "soy sauce", to: "fish sauce", ratio: 0.5, note: "stronger; use less" },
    Substitution { from: "soy sauce", to: "miso", ratio: 1.0, note: "paste: thin with water" },
    Substitution { from: "fish sauce", to: "soy sauce", ratio: 1.5, note: "vegetarian" },
    Substitution { from: "lemon", to: "lime", ratio: 1.0, note: "interchangeable acidity" },
    Substitution { from: "lime", to: "lemon", ratio: 1.0, note: "interchangeable acidity" },
    Substitution { from: "lemon", to: "vinegar", ratio: 0.5, note: "acidity only, no aroma" },
    Substitution { from: "cilantro", to: "parsley", ratio: 1.0, note: "for cilantro-averse eaters" },
    Substitution { from: "basil", to: "mint", ratio: 1.0, note: "southeast-asian dishes" },
    Substitution { from: "chicken", to: "tofu", ratio: 1.0, note: "vegetarian protein" },
    Substitution { from: "chicken", to: "turkey", ratio: 1.0, note: "leaner" },
    Substitution { from: "beef", to: "lamb", ratio: 1.0, note: "richer stews" },
    Substitution { from: "shrimp", to: "tofu", ratio: 1.0, note: "vegetarian" },
    Substitution { from: "flour", to: "cornmeal", ratio: 1.0, note: "gluten-free breading only" },
    Substitution { from: "cornstarch", to: "flour", ratio: 2.0, note: "thickening: use double" },
    Substitution { from: "flour", to: "cornstarch", ratio: 0.5, note: "thickening: use half" },
    Substitution { from: "baking powder", to: "baking soda", ratio: 0.33, note: "needs an acid present" },
    Substitution { from: "stock", to: "coconut milk", ratio: 1.0, note: "creamy soups" },
    Substitution { from: "parmesan", to: "feta", ratio: 1.0, note: "salty garnish; different melt" },
    Substitution { from: "paneer", to: "tofu", ratio: 1.0, note: "vegan curries" },
    Substitution { from: "gochujang", to: "harissa", ratio: 1.0, note: "different cuisine, similar heat/paste" },
    Substitution { from: "tahini", to: "peanut butter", ratio: 1.0, note: "sauces; nuttier" },
    Substitution { from: "vegetable oil", to: "olive oil", ratio: 1.0, note: "savory cooking" },
    Substitution { from: "rice", to: "quinoa", ratio: 1.0, note: "higher protein" },
    Substitution { from: "rice", to: "couscous", ratio: 1.0, note: "faster cooking" },
];

/// All substitutes for an ingredient.
pub fn substitutes(name: &str) -> Vec<&'static Substitution> {
    SUBSTITUTIONS.iter().filter(|s| s.from == name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology;

    #[test]
    fn every_rule_references_real_ingredients() {
        for s in SUBSTITUTIONS {
            assert!(
                ontology::ingredient(s.from).is_some(),
                "unknown `from` ingredient: {}",
                s.from
            );
            assert!(
                ontology::ingredient(s.to).is_some(),
                "unknown `to` ingredient: {}",
                s.to
            );
            assert!(s.ratio > 0.0, "{} -> {} has nonpositive ratio", s.from, s.to);
            assert!(!s.note.is_empty());
            assert_ne!(s.from, s.to);
        }
    }

    #[test]
    fn lookup_and_ratio() {
        let subs = substitutes("butter");
        assert!(subs.len() >= 3);
        assert!(subs.iter().any(|s| s.to == "coconut oil"));
        let oil = subs.iter().find(|s| s.to == "olive oil").unwrap();
        assert_eq!(oil.ratio, 0.75);
    }

    #[test]
    fn unknown_ingredient_has_no_rules() {
        assert!(substitutes("unobtanium").is_empty());
    }

    #[test]
    fn vegan_escape_hatches_exist() {
        // every common animal product has at least one plant substitute
        use crate::diet::{satisfies, Diet};
        use crate::recipe::{IngredientLine, Quantity, Recipe};
        for animal in ["butter", "cream", "chicken", "paneer"] {
            let subs = substitutes(animal);
            let has_vegan = subs.iter().any(|s| {
                let r = Recipe {
                    id: 0,
                    title: "t".into(),
                    region: "US General".into(),
                    country: "United States".into(),
                    servings: 2,
                    ingredients: vec![IngredientLine {
                        name: s.to.to_string(),
                        qty: Quantity(1.0),
                        unit: "cup".into(),
                    }],
                    processes: vec![],
                    instructions: vec!["mix".into()],
                };
                satisfies(&r, Diet::Vegan)
            });
            assert!(has_vegan, "{animal} has no vegan substitute");
        }
    }
}
