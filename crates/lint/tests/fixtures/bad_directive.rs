// nds-lint: allow(D2)
pub type Index = std::collections::HashMap<u8, u8>;
pub fn fine(v: Option<u8>) -> u8 {
    v.unwrap_or(0)
}
