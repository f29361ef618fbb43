//! Run the switch-and-LED driver of §4.1 as a "device driver": ghosts
//! erased, a simulated KMDF host translating OS callbacks into P events,
//! and a foreign-function flavored LED register implemented in Rust.
//!
//! ```sh
//! cargo run -p p-core --example switch_led_driver
//! ```

use p_core::{corpus, Compiled, Value};

fn main() {
    let compiled = Compiled::from_program(corpus::switch_led()).expect("switch_led compiles");
    println!(
        "driver machine has {} states; {} ghost machines will be erased",
        compiled
            .program()
            .machine_named("Driver")
            .unwrap()
            .states
            .len(),
        compiled.program().ghost_machines().count()
    );

    let runtime = compiled.runtime().expect("erases fine").start();
    let driver = runtime.create_machine("Driver", &[]).unwrap();
    println!(
        "created driver, state = {}",
        runtime.current_state(driver).unwrap()
    );

    // The OS powers the device up. (Sends to ghost hardware were erased;
    // at real runtime the interface code would forward them. We inject
    // the hardware's answers the way interface code would.)
    runtime
        .add_event(driver, "DevicePowerUp", Value::Null)
        .unwrap();
    println!(
        "after DevicePowerUp: {}",
        runtime.current_state(driver).unwrap()
    );

    // The switch hardware reports its initial state.
    runtime
        .add_event(driver, "SwitchStateChange", Value::Int(0))
        .unwrap();
    println!(
        "after initial SwitchStateChange: {} (switchState = {})",
        runtime.current_state(driver).unwrap(),
        runtime.read_var(driver, "switchState").unwrap()
    );

    // An application asks to set the LED; the transfer completes.
    runtime
        .add_event(driver, "IoctlSetLed", Value::Int(1))
        .unwrap();
    println!(
        "during transfer: {}",
        runtime.current_state(driver).unwrap()
    );
    runtime
        .add_event(driver, "TransferComplete", Value::Null)
        .unwrap();
    println!(
        "after TransferComplete: {} (ledState = {})",
        runtime.current_state(driver).unwrap(),
        runtime.read_var(driver, "ledState").unwrap()
    );

    // A switch interrupt races a second transfer: the driver defers it.
    runtime
        .add_event(driver, "IoctlSetLed", Value::Int(0))
        .unwrap();
    runtime
        .add_event(driver, "SwitchStateChange", Value::Int(1))
        .unwrap();
    let queued = runtime.queue_len(driver).unwrap();
    println!("interrupt during transfer deferred: queue length = {queued}");
    assert_eq!(queued, 1, "the switch interrupt waits out the transfer");
    runtime
        .add_event(driver, "TransferComplete", Value::Null)
        .unwrap();
    let switch_state = runtime.read_var(driver, "switchState").unwrap();
    println!("after completion the deferred interrupt is handled: switchState = {switch_state}");
    assert_eq!(switch_state, Value::Int(1));

    // Power down: the driver disarms the switch and waits for the ack.
    runtime
        .add_event(driver, "DevicePowerDown", Value::Null)
        .unwrap();
    runtime
        .add_event(driver, "SwitchDisarmed", Value::Null)
        .unwrap();
    let state = runtime.current_state(driver).unwrap();
    println!("after power down: {state}");
    assert_eq!(state, "PoweredOff");

    println!(
        "\nprocessed {} events in {} machine runs",
        runtime.events_processed(),
        runtime.runs_executed()
    );
}
