//! D5 fixture: panic paths in node message handlers. Linted under both
//! node paths: `on_message` is hot in both, `accept_block` only in the
//! blockchain node, `handle_vote` only in the DAG node, and `relay` in
//! neither.

pub struct Node {
    seen: Vec<u64>,
}

impl Node {
    fn on_message(&mut self, msg: Option<u64>) {
        let id = msg.expect("well-formed gossip");
        self.relay(id);
    }

    fn accept_block(&mut self, height: usize) {
        let _parent = self.seen[height];
    }

    fn handle_vote(&mut self, vote: Option<u64>) {
        self.seen.push(vote.unwrap());
    }

    fn relay(&mut self, id: u64) {
        let _first = self.seen[0];
        self.seen.push(Some(id).unwrap());
    }
}
