//! Building a document from owned parts moves them: `Json::set` and
//! `Json::push` take an owned subtree or string without copying it, so
//! a document costs one allocation per node however deep it nests.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use obs::Json;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    thread_alloc_counts().0
}

#[test]
fn owned_subtrees_and_strings_move_into_place() {
    let mut numbers = Json::array();
    for i in 0..100u32 {
        numbers.push(i);
    }
    let mut nested = Json::object();
    nested.set("numbers", Json::array());
    let text = "x".repeat(64);
    let mut doc = Json::object();
    doc.set("first", 0u32);
    let mut list = Json::array();
    list.push(0u32);

    let before = alloc_count();
    // One allocation each: the key. The subtree and the string move.
    doc.set("numbers", numbers);
    doc.set("text", text);
    // No allocation: the array has room and the subtree moves.
    list.push(nested);
    assert_eq!(alloc_count() - before, 2);

    // A borrowed subtree is still copied, and renders the same.
    let before = alloc_count();
    let mut copy = Json::object();
    copy.set("doc", &doc);
    assert!(alloc_count() - before > 2);
    assert_eq!(copy.get("doc"), Some(&doc));
    assert_eq!(
        list.to_string(),
        r#"[0,{"numbers":[]}]"#,
        "moved subtrees render as before"
    );
}
