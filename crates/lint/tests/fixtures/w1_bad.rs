pub struct Orphan;

impl Wire for Orphan {
    fn encode(&self, format: WireFormat, w: &mut WireWriter) {
        let _ = (format, w);
    }
}
