pub struct Msg;

impl Wire for Msg {
    fn decode(format: WireFormat, r: &mut Reader) -> Option<Msg> {
        // lint:allow(P1): ignored — the decode contract is absolute
        let first = r.bytes().next().unwrap();
        let rest = helper(r);
        let _ = (first, rest);
        Some(Msg)
    }
}

fn helper(r: &Reader) -> u8 {
    r.buf[0]
}
