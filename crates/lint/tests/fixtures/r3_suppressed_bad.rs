// Suppression-syntax fixture: a directive without the mandatory reason is
// itself an error, and the finding it tried to silence stays active.

pub fn is_free(cost: f64) -> bool {
    // dblayout::allow(R3)
    cost == 0.0
}
