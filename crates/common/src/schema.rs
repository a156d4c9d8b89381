//! Relational schemas: named, typed, NULLability-tracked column lists.

use crate::error::{Result, VwError};
use crate::types::TypeId;
use std::fmt;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-preserved; lookups are case-insensitive).
    pub name: String,
    /// Column type.
    pub ty: TypeId,
    /// May this column contain NULLs? Drives the optimizer's NULL-test
    /// erasure: `IS [NOT] NULL` over a non-nullable column is a literal.
    pub nullable: bool,
}

impl Field {
    /// A nullable field.
    pub fn nullable(name: impl Into<String>, ty: TypeId) -> Field {
        Field { name: name.into(), ty, nullable: true }
    }

    /// A NOT NULL field.
    pub fn not_null(name: impl Into<String>, ty: TypeId) -> Field {
        Field { name: name.into(), ty, nullable: false }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}{}",
            self.name,
            self.ty.sql_name(),
            if self.nullable { "" } else { " NOT NULL" }
        )
    }
}

/// An ordered list of fields describing a table or operator output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns, in position order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name.eq_ignore_ascii_case(&f.name)) {
                return Err(VwError::Catalog(format!("duplicate column name '{}'", f.name)));
            }
        }
        Ok(Schema { fields })
    }

    /// Build a schema without duplicate checking (operator outputs may have
    /// repeated/derived names, e.g. after a join of self-named columns).
    pub fn unchecked(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Is this the empty schema?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Case-insensitive lookup by name, returning the position.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(right.fields.iter().cloned());
        Schema { fields }
    }

    /// Keep only the columns at `indices`, in the given order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema { fields: indices.iter().map(|&i| self.fields[i].clone()).collect() }
    }

    /// Rough per-row byte width, used by the optimizer's cost model.
    pub fn row_width(&self) -> usize {
        self.fields.iter().map(|f| f.ty.fixed_width()).sum()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fld}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::not_null("id", TypeId::I64),
            Field::nullable("name", TypeId::Str),
            Field::nullable("born", TypeId::Date),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_names_rejected_case_insensitively() {
        let r = Schema::new(vec![
            Field::not_null("id", TypeId::I64),
            Field::nullable("ID", TypeId::I32),
        ]);
        assert!(matches!(r, Err(VwError::Catalog(_))));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn join_concatenates() {
        let s = sample();
        let j = s.join(&s);
        assert_eq!(j.len(), 6);
        assert_eq!(j.field(4).name, "name");
    }

    #[test]
    fn project_reorders() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.field(0).name, "born");
        assert_eq!(p.field(1).name, "id");
    }

    #[test]
    fn row_width_sums() {
        let s = sample();
        assert_eq!(s.row_width(), 8 + 16 + 4);
    }

    #[test]
    fn display_formats() {
        let s = sample();
        let d = s.to_string();
        assert!(d.contains("id BIGINT NOT NULL"));
        assert!(d.contains("name VARCHAR"));
    }
}
