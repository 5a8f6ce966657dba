pub fn fine(v: Option<u8>) -> u8 {
    // nds-lint: allow(D2, nothing on the next line is a hash collection)
    v.map_or(0, |x| x)
}
