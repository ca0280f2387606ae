//! Seeded violation for the `erasure-boundary` rule: a worker-side
//! function unwraps a message envelope itself instead of going through
//! the envelope helpers, so a batch of the wrong program would pass
//! whenever two programs share a message type.

fn messages(payload: Envelope) -> Box<Vec<(VertexId, u32)>> {
    payload.downcast().ok().unwrap_or_default()
}

fn aggregate(envelope: &Envelope) -> Option<&u64> {
    envelope.downcast_ref::<u64>()
}

fn local(state: &mut dyn Any) -> Option<&mut QueryLocal<ReachProgram>> {
    state.downcast_mut()
}
