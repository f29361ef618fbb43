//! Foreign functions with erasable model bodies (§3 "Other features"):
//! the same program is verified against the P model of its foreign code
//! and executed against the real Rust implementation.
//!
//! ```sh
//! cargo run -p p-core --example foreign_models
//! ```

use p_core::{Compiled, Value};

fn main() {
    // The driver reads a sensor through a foreign function. During
    // verification, `read_sensor` has no native implementation, so the
    // checker interprets its erasable model body — which says "the sensor
    // returns *some* value between 0 and 2" using ghost nondeterminism.
    let source = r#"
        event sample;

        machine Monitor {
            var last : int;
            var alarms : int;

            foreign fn read_sensor() : int {
                result := 0;
                if (*) { result := 1; }
                if (*) { result := result + 1; }
            }

            state Run {
                on sample do take;
            }

            action take {
                last := read_sensor();
                assert(last >= 0);
                assert(last <= 2);
                if (last == 2) {
                    alarms := alarms + 1;
                }
            }
        }

        ghost machine Env {
            var m : id;
            var budget : int;
            state Drive {
                entry {
                    m := new Monitor(alarms = 0);
                    while (budget > 0) {
                        budget := budget - 1;
                        send(m, sample);
                    }
                }
            }
        }

        main Env(budget = 1);
    "#;

    let compiled = Compiled::from_source(source).expect("compiles");

    // Verification interprets the model body, exploring all three sensor
    // outcomes per sample.
    let report = compiled.verifier().try_check_exhaustive().unwrap();
    println!(
        "verification against the model body: {} — {}",
        if report.passed() { "PASSED" } else { "FAILED" },
        report.stats
    );
    assert!(report.passed(), "the model body keeps the sensor in 0..=2");

    // Execution uses the real implementation; the model body was erased.
    let mut builder = compiled.runtime().expect("erases");
    let readings = std::sync::Mutex::new(vec![2i64, 0, 2, 1]);
    builder.foreign("read_sensor", move |_args| {
        let mut r = readings.lock().unwrap();
        Value::Int(r.pop().unwrap_or(0))
    });
    let runtime = builder.start();
    let monitor = runtime
        .create_machine("Monitor", &[("alarms", Value::Int(0))])
        .unwrap();
    for _ in 0..4 {
        runtime.add_event(monitor, "sample", Value::Null).unwrap();
    }
    let last = runtime.read_var(monitor, "last").unwrap();
    let alarms = runtime.read_var(monitor, "alarms").unwrap();
    println!("execution against the native sensor: last = {last}, alarms = {alarms}");
    // The readings pop as 1, 2, 0, 2: two of them raise the alarm.
    assert_eq!((last, alarms), (Value::Int(2), Value::Int(2)));
}
