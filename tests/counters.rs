//! The VM layer's typed counters keep the contract of the string-keyed
//! set they replaced: a counter touched only by `add(c, 0)` still shows up
//! in snapshots and exports, iteration is in name order, and every name
//! read back by string is a real counter.

use std::path::Path;

use hipec_core::{stats_export, HipecKernel};
use hipec_vm::{KernelParams, VmCounter, PAGE_SIZE};

#[test]
fn a_counter_added_zero_appears_in_snapshot_and_export() {
    let mut k = HipecKernel::new(KernelParams::paper_64mb());
    let t = k.vm.create_task();
    let (addr, _) = k.vm.vm_allocate(t, 4 * PAGE_SIZE).expect("allocate");
    // Nothing was touched, so the deallocation adds zero frames.
    assert_eq!(k.vm.vm_deallocate(t, addr).expect("deallocate"), 0);
    let stats = k.kernel_stats();
    assert_eq!(stats.get("deallocated_frames"), Some(0));
    assert_eq!(
        stats.get("zero_fills"),
        None,
        "untouched counters stay absent"
    );
    let export = stats_export(&stats);
    assert!(export.contains("hipec_counter{name=\"deallocated_frames\"} 0\n"));
    assert!(!export.contains("name=\"zero_fills\""));
}

#[test]
fn vm_counters_iterate_in_name_order() {
    let mut k = HipecKernel::new(KernelParams::paper_64mb());
    let t = k.vm.create_task();
    let (addr, _) = k.vm.vm_allocate(t, 4 * PAGE_SIZE).expect("allocate");
    for p in 0..4 {
        k.access_sync(t, hipec_vm::VAddr(addr.0 + p * PAGE_SIZE), p % 2 == 0)
            .expect("access");
    }
    k.access_sync(t, addr, false).expect("hit");
    k.vm.vm_deallocate(t, addr).expect("deallocate");
    let names: Vec<&str> = k.vm.stats.iter().map(|(name, _)| name).collect();
    assert!(names.len() >= 4, "{names:?}");
    assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    // Snapshot globals list the VM counters in the same order.
    let stats = k.kernel_stats();
    let vm_names: Vec<&str> = stats
        .global
        .keys()
        .copied()
        .filter(|n| VmCounter::from_name(n).is_some())
        .collect();
    assert_eq!(vm_names, names);
}

/// Every by-name read of the VM counters (`stats.get` on a string literal)
/// in the workspace's crates, tests, bench binaries, examples and
/// benchmark harness names a [`VmCounter`], so a misspelt counter fails
/// here instead of reading zero at run time.
#[test]
fn every_vm_counter_read_by_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "perfbench/src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    let mut reads = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        let flat: String = text.split_whitespace().collect();
        for (at, _) in flat.match_indices(".stats.get(\"") {
            let rest = &flat[at + ".stats.get(\"".len()..];
            let name = &rest[..rest.find('"').expect("closing quote")];
            assert!(
                VmCounter::from_name(name).is_some(),
                "{}: `{name}` is not a VM counter",
                file.display()
            );
            reads += 1;
        }
    }
    assert!(reads > 50, "scan found only {reads} counter reads");
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
