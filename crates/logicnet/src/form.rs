//! The operation form a driver loop runs its diagram operations in.
//!
//! Each driver (the netlist build, the CEC prover) is written once,
//! generic over an [`OpForm`]: [`Unbudgeted`] calls the infallible handle
//! operations, an [`OpBudget`] calls their `try_` forms. The infallible
//! entries do not run under `OpBudget::unlimited()`, because every `try_`
//! operation charges the manager's `govern.*` counters; with the
//! [`Unbudgeted`] form an ungoverned run leaves them untouched.

use ddcore::api::{BooleanFunction, FunctionManager};
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::BoolOp;
use std::convert::Infallible;

/// How a driver applies, quantifies and offers collections.
pub(crate) trait OpForm {
    /// Why an operation stopped.
    type Abort;

    /// `f ⊗ g`.
    fn apply<F: BooleanFunction>(&mut self, op: BoolOp, f: &F, g: &F) -> Result<F, Self::Abort>;

    /// `f ? g : h`.
    fn ite<F: BooleanFunction>(&mut self, f: &F, g: &F, h: &F) -> Result<F, Self::Abort>;

    /// `∃ vars . f`.
    fn exists<F: BooleanFunction>(&mut self, f: &F, vars: &[usize]) -> Result<F, Self::Abort>;

    /// A garbage-collection (or scheduled-reorder) opportunity.
    fn collect<M: FunctionManager>(&mut self, mgr: &M) -> Result<(), Self::Abort>;
}

/// The ungoverned form: the infallible operations, which never abort.
#[derive(Clone)]
pub(crate) struct Unbudgeted;

impl OpForm for Unbudgeted {
    type Abort = Infallible;

    fn apply<F: BooleanFunction>(&mut self, op: BoolOp, f: &F, g: &F) -> Result<F, Infallible> {
        Ok(f.apply(op, g))
    }

    fn ite<F: BooleanFunction>(&mut self, f: &F, g: &F, h: &F) -> Result<F, Infallible> {
        Ok(f.ite(g, h))
    }

    fn exists<F: BooleanFunction>(&mut self, f: &F, vars: &[usize]) -> Result<F, Infallible> {
        Ok(f.exists(vars))
    }

    fn collect<M: FunctionManager>(&mut self, mgr: &M) -> Result<(), Infallible> {
        mgr.collect();
        Ok(())
    }
}

impl OpForm for OpBudget {
    type Abort = OpAbort;

    fn apply<F: BooleanFunction>(&mut self, op: BoolOp, f: &F, g: &F) -> Result<F, OpAbort> {
        f.try_apply(op, g, self)
    }

    fn ite<F: BooleanFunction>(&mut self, f: &F, g: &F, h: &F) -> Result<F, OpAbort> {
        f.try_ite(g, h, self)
    }

    fn exists<F: BooleanFunction>(&mut self, f: &F, vars: &[usize]) -> Result<F, OpAbort> {
        f.try_exists(vars, self)
    }

    fn collect<M: FunctionManager>(&mut self, mgr: &M) -> Result<(), OpAbort> {
        mgr.try_collect(self).map(drop)
    }
}
