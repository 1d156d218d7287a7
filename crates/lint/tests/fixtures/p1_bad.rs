pub struct Msg;

impl Wire for Msg {
    fn decode(format: WireFormat, r: &mut Reader) -> Option<Msg> {
        let first = r.bytes().next().unwrap();
        let rest = (helper(r), codec::tag(r));
        let _ = (first, rest, Table::width(r), r.u8().map(Table::id));
        Some(Msg)
    }
}

fn helper(r: &Reader) -> u8 {
    r.buf[0]
}

impl Table {
    fn width(r: &Reader) -> usize {
        r.len() / r.count()
    }

    fn id(raw: u8) -> u8 {
        assert!(raw < 200, "reserved");
        raw
    }
}
