pub fn tag(r: &Reader) -> u8 {
    r.buf[1]
}

pub fn unrelated(r: &Reader) -> u8 {
    r.buf[2]
}
