pub fn risky(v: &Option<u32>) -> u32 {
    v.unwrap()
}
