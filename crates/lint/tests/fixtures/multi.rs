use std::collections::HashMap;

pub struct Multi;

impl Wire for Multi {
    fn decode(format: WireFormat, r: &mut Reader) -> Option<Multi> {
        let _map: HashMap<u8, u8> = HashMap::default();
        let _b = r.buf[0];
        None
    }
}
