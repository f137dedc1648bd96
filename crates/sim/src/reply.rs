//! Replies: how model code hands a parked process the result it waits for.
//!
//! A process has at most one kernel interaction outstanding — a posted op
//! ([`post_op`](crate::ProcCtx::post_op)) or a sleep — so its reply needs
//! one place to wait, and that place is the process's entry in the kernel's
//! process table: two words, filled by [`Reply::complete`] (or by the
//! kernel, for a sleep) and handed to the process with the wake that
//! resumes it. A [`Reply<R>`] is therefore just
//! the pid and a type marker, and any `R` that packs into two words
//! ([`ReplyWords`]) can be a reply; nothing is allocated per call.

use std::marker::PhantomData;

use crate::kernel::SimCtx;
use crate::process::Pid;
use crate::time::SimTime;

/// A reply value that travels as two words, the form in which the kernel
/// keeps a pending reply in the process table. `to_words` and `from_words`
/// must round-trip every value the model sends.
pub trait ReplyWords: Sized + 'static {
    /// Pack the value.
    fn to_words(self) -> [u64; 2];
    /// Unpack a value packed by [`ReplyWords::to_words`].
    fn from_words(words: [u64; 2]) -> Self;
}

impl ReplyWords for () {
    fn to_words(self) -> [u64; 2] {
        [0, 0]
    }
    fn from_words(_: [u64; 2]) -> Self {}
}

impl ReplyWords for u32 {
    fn to_words(self) -> [u64; 2] {
        [u64::from(self), 0]
    }
    fn from_words(words: [u64; 2]) -> Self {
        words[0] as u32
    }
}

impl ReplyWords for u64 {
    fn to_words(self) -> [u64; 2] {
        [self, 0]
    }
    fn from_words(words: [u64; 2]) -> Self {
        words[0]
    }
}

/// The write-half of a pending posted op
/// ([`ProcCtx::post_op`](crate::ProcCtx::post_op)).
///
/// Model code makes a `Reply<R>` for the request it handles. It must
/// eventually call [`complete`](Reply::complete) (immediately or from a later
/// event) to deliver the result and wake the process. Dropping a `Reply`
/// without completing it leaves the process parked forever — the kernel
/// reports this as a deadlock, which is the desired loud failure for a model
/// bug (or the correct silent behaviour for a process that is about to be
/// killed).
pub struct Reply<R> {
    pid: Pid,
    _value: PhantomData<fn(R)>,
}

impl<R: ReplyWords> Reply<R> {
    /// The reply to `pid`'s posted op: the op's handler makes it from the
    /// pid the [`DataEvent::Op`](crate::DataEvent::Op) names. `R` must be
    /// the type the process waits for.
    pub fn new(pid: Pid) -> Self {
        Reply {
            pid,
            _value: PhantomData,
        }
    }

    /// The process waiting on this reply.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Deliver `value` and wake the process at the current event time.
    pub fn complete(self, sc: &SimCtx, value: R) {
        sc.complete(self.pid, sc.now(), value.to_words());
    }

    /// Deliver `value` and wake the process at the (future) time `at`.
    pub fn complete_at(self, sc: &SimCtx, at: SimTime, value: R) {
        sc.complete(self.pid, at, value.to_words());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_replies_round_trip() {
        for v in [0u32, 1, u32::MAX] {
            assert_eq!(u32::from_words(v.to_words()), v);
        }
        for v in [0u64, 1 << 40, u64::MAX] {
            assert_eq!(u64::from_words(v.to_words()), v);
        }
        <()>::from_words(().to_words());
    }
}
