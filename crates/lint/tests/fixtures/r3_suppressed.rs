// R3 suppression fixture: the violation is silenced with a documented reason.

pub fn is_free(cost: f64) -> bool {
    // dblayout::allow(R3, reason = "fixture: zero is an exact sentinel, never a computed cost")
    cost == 0.0
}
