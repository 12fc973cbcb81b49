//! The names `benchmark/src/cells.rs` compiles against. The mailbox
//! itself is [`embera::runtime::Fifo`], shared with the executor
//! backend; new code should name that.

use embera::runtime::Fifo;

/// The one mailbox implementation left (a mutex-guarded FIFO; the
/// receiver parks on its component's parker, not on the mailbox). Goes,
/// with [`Mailbox`], at the next benchmark revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MailboxKind {
    /// The paper-faithful unbounded FIFO.
    #[default]
    MutexCondvar,
}

/// A free-standing [`Fifo`] under its historical name.
///
/// ```
/// use embera::Message;
/// use embera_smp::{Mailbox, MailboxKind};
/// use bytes::Bytes;
///
/// let mb = Mailbox::new("in", MailboxKind::default());
/// mb.push(Message::Data(Bytes::from_static(b"hello")));
/// assert_eq!(mb.queued_bytes(), 5);
/// assert!(mb.try_pop().is_some());
/// ```
#[derive(Clone)]
pub struct Mailbox(Fifo);

impl Mailbox {
    /// An empty mailbox. Name and kind are accepted for compatibility.
    pub fn new(_name: impl Into<String>, _kind: MailboxKind) -> Self {
        Mailbox(Fifo::new(0))
    }
}

impl std::ops::Deref for Mailbox {
    type Target = Fifo;

    fn deref(&self) -> &Fifo {
        &self.0
    }
}
