//! The report kit: byte-stable rendering and gate collection.

use drivolution_bench::{Object, Report, Size, Value};

#[test]
fn report_renders_nested_values_in_insertion_order() {
    let mut r = Report::new("demo");
    r.set("zeta", 1u64);
    r.set("alpha", true);
    r.set("inner", Object::default().with("b", 2usize).with("a", "x"));
    r.set("list", Value::Array(vec![10u64.into(), 30u64.into()]));
    let rows = ["p", "q"].map(|n| Object::default().with("name", n).with("n", 0u64).into());
    r.set("rows", Value::Array(rows.to_vec()));
    r.set("none", Value::Null);
    let expected = r#"{
  "bench": "demo",
  "zeta": 1,
  "alpha": true,
  "inner": {"b": 2, "a": "x"},
  "list": [10, 30],
  "rows": [
    {"name": "p", "n": 0},
    {"name": "q", "n": 0}
  ],
  "none": null
}
"#;
    assert_eq!(r.to_json(), expected);
}

#[test]
fn strings_are_escaped() {
    let v = Value::from("say \"hi\" \\ \n\u{1}");
    assert_eq!(v.to_string(), r#""say \"hi\" \\ \u000a\u0001""#);
}

#[test]
fn floats_print_a_fixed_number_of_decimals() {
    assert_eq!(Value::Float(0.25, 2).to_string(), "0.25");
    assert_eq!(Value::Float(0.94, 4).to_string(), "0.9400");
    assert_eq!(Value::Float(4787.6, 0).to_string(), "4788");
    assert_eq!(Value::Float(1398.24, 1).to_string(), "1398.2");
    // Rendering is a pure function of the value: a regenerated file is
    // byte-stable.
    let mut r = Report::new("f");
    r.set("x", Value::Float(1.0 / 3.0, 3));
    assert_eq!(r.to_json(), "{\n  \"bench\": \"f\",\n  \"x\": 0.333\n}\n");
    assert_eq!(r.to_json(), r.clone().to_json());
}

#[test]
fn a_failed_require_fails_the_report_and_carries_its_message() {
    let mut r = Report::new("gated");
    r.gates.require(true, "holds");
    assert!(r.gates.failures().is_empty());
    r.gates.require(false, format!("{} clients stranded", 3));
    r.gates.require(false, "second");
    assert_eq!(r.gates.failures(), ["3 clients stranded", "second"]);
}

/// The contract the scenarios' former `assert!`s were converted to: a
/// broken promise is a message on the report, and the phases after it
/// still run and are still recorded.
#[test]
fn a_broken_promise_mid_scenario_fails_the_gate_and_keeps_the_record_complete() {
    let scenario = |upgraded: bool| {
        let mut r = Report::new("shaped");
        r.set("cold_wire_bytes", 65_868u64);
        r.gates.require(upgraded, "a poll did not upgrade");
        r.set("delta_wire_bytes", 6_582u64);
        r
    };
    assert!(scenario(true).gates.failures().is_empty());
    let broken = scenario(false);
    assert_eq!(broken.gates.failures(), ["a poll did not upgrade"]);
    assert_eq!(broken.to_json(), scenario(true).to_json());
}

#[test]
fn size_picks_by_variant() {
    assert_eq!(Size::Smoke.pick(12, 50), 12);
    assert_eq!(Size::Full.pick(12, 50), 50);
}
