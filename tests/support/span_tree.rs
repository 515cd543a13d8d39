//! A walker over the JSON span tree every trace surface serves — the
//! `tree` of a `/v1/slow` entry and the `root` of a `/v1/trace/<id>`
//! record, both `{name, start_us, duration_us, children}` — shared by the
//! tests that read one (`#[path = "support/span_tree.rs"] mod span_tree;`).

use trex::obs::JsonValue;

/// Checks the one shape every span tree has: the root is named `query` (or
/// `scatter`, the partitioned fan-out), every node's children are in start
/// order, and every child's interval lies inside its parent's, with 1 µs of
/// slack for microsecond rounding. Returns the span names depth first.
pub fn check_span_tree(root: &JsonValue) -> Vec<String> {
    let mut names = Vec::new();
    walk(root, &mut names);
    assert!(
        names[0] == "query" || names[0] == "scatter",
        "root span is {:?}",
        names[0]
    );
    names
}

fn walk(node: &JsonValue, names: &mut Vec<String>) -> (u64, u64) {
    let field = |key: &str| node.get(key).unwrap_or_else(|| panic!("span has no {key}"));
    let name = field("name").as_str().expect("span name is a string");
    let start = field("start_us").as_u64().expect("start_us");
    let end = start + field("duration_us").as_u64().expect("duration_us");
    names.push(name.to_string());
    let JsonValue::Array(children) = field("children") else {
        panic!("span {name}: children is not an array");
    };
    let mut previous_start = 0;
    for child in children {
        let (child_start, child_end) = walk(child, names);
        assert!(
            child_start >= previous_start,
            "span {name}: children out of start order"
        );
        assert!(
            child_start + 1 >= start && child_end <= end + 1,
            "span {name} [{start}, {end}] does not contain child [{child_start}, {child_end}]"
        );
        previous_start = child_start;
    }
    (start, end)
}
