//! Local, environment, and global states (Section 5).

use crate::action::{Action, Event};
use atl_lang::{hide_message, KeySet, Message, MessageSet, Principal, TermCache};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A system principal's local state: its local history, its key set, and
/// any application data (used, e.g., by the coin-toss example of Section 7,
/// where a principal's state records a coin outcome).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalState {
    /// The sequence of all actions the principal has performed.
    pub history: Vec<Action>,
    /// The keys the principal holds.
    pub key_set: KeySet,
    /// Application-specific local data, part of the state for the purposes
    /// of indistinguishability.
    pub data: BTreeMap<String, String>,
}

impl LocalState {
    /// Creates an empty local state holding the given keys.
    pub fn with_keys(keys: impl IntoIterator<Item = atl_lang::Key>) -> Self {
        LocalState {
            history: Vec::new(),
            key_set: keys.into_iter().collect(),
            data: BTreeMap::new(),
        }
    }

    /// The set of messages the principal has received (the paper's `𝓜`):
    /// every `m` with `receive(m)` in the local history.
    pub fn received(&self) -> MessageSet {
        self.history
            .iter()
            .filter_map(|a| match a {
                Action::Receive { message } => Some(message.clone()),
                _ => None,
            })
            .collect()
    }

    /// The set of messages the principal has sent, analogously.
    pub fn sent(&self) -> MessageSet {
        self.history
            .iter()
            .filter_map(|a| match a {
                Action::Send { message, .. } => Some(message.clone()),
                _ => None,
            })
            .collect()
    }

    /// The `hide` operation of Section 6 applied to a whole local state:
    /// every message in the history has its unreadable ciphertext replaced
    /// by the opaque token, using the *current* key set.
    ///
    /// Two local states are indistinguishable to their owner exactly when
    /// their hidden forms are equal.
    pub fn hidden(&self) -> LocalState {
        self.hidden_by(&mut |m, keys| hide_message(m, keys))
    }

    /// [`Self::hidden`] routed through a [`TermCache`], so repeated hides
    /// of the same `(message, key set)` pair — ubiquitous when scanning
    /// many points of the same system — are computed once.
    pub fn hidden_with(&self, cache: &mut TermCache) -> LocalState {
        self.hidden_by(&mut |m, keys| (*cache.hide(m, keys)).clone())
    }

    fn hidden_by(&self, hide: &mut dyn FnMut(&Message, &KeySet) -> Message) -> LocalState {
        LocalState {
            history: self
                .history
                .iter()
                .map(|a| match a {
                    Action::Send { message, to } => Action::Send {
                        message: hide(message, &self.key_set),
                        to: to.clone(),
                    },
                    Action::Receive { message } => Action::Receive {
                        message: hide(message, &self.key_set),
                    },
                    Action::NewKey { key } => Action::NewKey { key: key.clone() },
                })
                .collect(),
            key_set: self.key_set.clone(),
            data: self.data.clone(),
        }
    }
}

/// The environment's state: the global history, the environment's own key
/// set, and a message buffer per principal holding messages sent but not
/// yet delivered (Section 5).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnvState {
    /// The sequence of all actions performed by any principal, each tagged
    /// with its performer.
    pub global_history: Vec<Event>,
    /// The environment's key set.
    pub key_set: KeySet,
    /// Per-principal buffers of undelivered messages. The environment
    /// principal has a buffer here too.
    pub buffers: BTreeMap<Principal, Vec<Message>>,
}

impl EnvState {
    /// The messages currently buffered for `p` (empty slice if none).
    pub fn buffer(&self, p: &Principal) -> &[Message] {
        self.buffers.get(p).map_or(&[], Vec::as_slice)
    }
}

/// A global state: the environment state plus one local state per system
/// principal (Section 5's tuple `(s_e, s_1, …, s_n)`).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalState {
    /// The environment component `s_e`.
    pub env: EnvState,
    /// The system principals' components, keyed by principal.
    pub locals: BTreeMap<Principal, LocalState>,
}

impl GlobalState {
    /// The local state of `p`, borrowed for a system principal.
    ///
    /// For the distinguished environment principal this synthesizes an
    /// owned view from the environment state: its history is the
    /// environment's own actions drawn from the global history, and its
    /// key set is the environment key set. (The environment can deduce
    /// everything in the global state, but for the belief semantics only
    /// its own actions and keys matter, matching the treatment of system
    /// principals.)
    pub fn local(&self, p: &Principal) -> Cow<'_, LocalState> {
        if let Some(s) = self.locals.get(p) {
            return Cow::Borrowed(s);
        }
        Cow::Owned(LocalState {
            history: self
                .env
                .global_history
                .iter()
                .filter(|e| &e.actor == p)
                .map(|e| e.action.clone())
                .collect(),
            key_set: self.env.key_set.clone(),
            data: BTreeMap::new(),
        })
    }

    /// The key set of `p` in this state (environment key set for the
    /// environment principal).
    pub fn key_set(&self, p: &Principal) -> &KeySet {
        self.locals.get(p).map_or(&self.env.key_set, |s| &s.key_set)
    }

    /// The system principals present in this state, in order.
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.locals.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Key, Nonce};

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    #[test]
    fn received_and_sent_extraction() {
        let mut s = LocalState::with_keys([Key::new("K")]);
        s.history.push(Action::receive(nonce("X")));
        s.history.push(Action::send(nonce("Y"), "B"));
        s.history.push(Action::new_key("K2"));
        assert!(s.received().contains(&nonce("X")));
        assert!(!s.received().contains(&nonce("Y")));
        assert!(s.sent().contains(&nonce("Y")));
    }

    #[test]
    fn hidden_masks_unreadable_ciphertext_only() {
        let mut s = LocalState::with_keys([Key::new("Ka")]);
        let readable = Message::encrypted(nonce("X"), Key::new("Ka"), Principal::new("S"));
        let unreadable = Message::encrypted(nonce("Y"), Key::new("Kb"), Principal::new("S"));
        s.history.push(Action::receive(readable.clone()));
        s.history.push(Action::receive(unreadable));
        let h = s.hidden();
        assert_eq!(h.history[0], Action::receive(readable));
        assert_eq!(h.history[1], Action::receive(Message::Opaque));
    }

    #[test]
    fn hidden_states_merge_indistinguishable_histories() {
        // Two states that differ only in ciphertext the owner cannot read
        // hide to the same state.
        let mk = |inner: &str| {
            let mut s = LocalState::with_keys([]);
            s.history.push(Action::receive(Message::encrypted(
                nonce(inner),
                Key::new("K"),
                Principal::new("S"),
            )));
            s
        };
        assert_eq!(mk("X").hidden(), mk("Y").hidden());
    }

    #[test]
    fn hidden_with_cache_matches_uncached_hidden() {
        let mut s = LocalState::with_keys([Key::new("Ka")]);
        s.history.push(Action::receive(Message::encrypted(
            nonce("X"),
            Key::new("Ka"),
            Principal::new("S"),
        )));
        s.history.push(Action::send(
            Message::encrypted(nonce("Y"), Key::new("Kb"), Principal::new("S")),
            "B",
        ));
        let mut cache = TermCache::new();
        assert_eq!(s.hidden_with(&mut cache), s.hidden());
        // Second pass over the same state is answered from the cache.
        assert_eq!(s.hidden_with(&mut cache), s.hidden());
        assert!(cache.stats().hits >= 2);
    }

    #[test]
    fn environment_local_view_filters_global_history() {
        let env_p = Principal::environment();
        let mut g = GlobalState::default();
        g.env
            .global_history
            .push(Event::new("A", Action::new_key("Ka")));
        g.env
            .global_history
            .push(Event::new(env_p.clone(), Action::new_key("Ke")));
        g.env.key_set.insert(Key::new("Ke"));
        let view = g.local(&env_p);
        assert!(matches!(view, Cow::Owned(_)));
        assert_eq!(
            *view,
            LocalState {
                history: vec![Action::new_key("Ke")],
                key_set: [Key::new("Ke")].into_iter().collect(),
                data: BTreeMap::new(),
            }
        );
    }

    #[test]
    fn system_principal_local_state_is_borrowed() {
        let a = Principal::new("A");
        let mut g = GlobalState::default();
        let mut s = LocalState::with_keys([Key::new("Ka")]);
        s.history.push(Action::receive(nonce("X")));
        g.locals.insert(a.clone(), s);
        let view = g.local(&a);
        let Cow::Borrowed(borrowed) = view else {
            panic!("a system principal's local state was copied");
        };
        assert!(std::ptr::eq(borrowed, &g.locals[&a]));
    }

    #[test]
    fn key_set_lookup() {
        let mut g = GlobalState::default();
        g.locals
            .insert(Principal::new("A"), LocalState::with_keys([Key::new("Ka")]));
        assert!(g.key_set(&Principal::new("A")).contains(&Key::new("Ka")));
        assert!(g.key_set(&Principal::environment()).is_empty());
    }
}
