// Guard-poison unwraps: raw `std::sync` locks crashed through.

fn raw_unwrap(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

fn raw_expect(m: &std::sync::RwLock<u32>) -> u32 {
    *m.read().expect("poisoned")
}
