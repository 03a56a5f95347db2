//! Runs: timed sequences of global states (Section 5).
//!
//! A run assigns integer times to a sequence of global states. The first
//! state carries some time `k₀ ≤ 0`; the state at time 0 is the *initial
//! state* — the first state of the current epoch (the current
//! authentication). States before time 0 belong to the past epoch.
//!
//! The paper's runs are infinite; here a run is a finite prefix long enough
//! to contain time 0 and every point under analysis (see DESIGN.md §3 for
//! why this preserves the semantics of all constructs).

use crate::action::{Action, Event};
use crate::error::ModelError;
use crate::state::{EnvState, GlobalState, LocalState};
use atl_lang::{
    can_see, said_submsgs, Bindings, Key, KeySet, KeyTerm, Message, MessageSet, Principal,
};

/// A send event unfolded with the sender's context at send time, used by
/// the `said`/`says` and shared-key semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendRecord {
    /// The time at which the send was performed (the event leading out of
    /// the state at this time).
    pub time: i64,
    /// The sending principal.
    pub sender: Principal,
    /// The recipient.
    pub to: Principal,
    /// The message sent.
    pub message: Message,
    /// The sender's key set at send time.
    pub key_set: KeySet,
    /// The messages the sender had received by send time.
    pub received: MessageSet,
}

impl SendRecord {
    /// The components of the sent message the sender is considered to have
    /// said (`said-submsgs` with the sender's context at send time).
    pub fn said_submsgs(&self) -> MessageSet {
        said_submsgs(&self.message, &self.key_set, &self.received)
    }
}

/// A finite run: a timed sequence of global states with the events between
/// them and a per-run parameter assignment (Section 8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run {
    start_time: i64,
    states: Vec<GlobalState>,
    events: Vec<Event>,
    bindings: Bindings,
    send_records: Vec<SendRecord>,
}

impl Run {
    /// Assembles a run from raw parts without checking the well-formedness
    /// restrictions of Section 5 (use [`RunBuilder`] for checked
    /// construction, and [`validate`](crate::validate::validate_run) to
    /// audit a hand-made run).
    ///
    /// # Errors
    ///
    /// Returns an error if the state/event counts disagree, if
    /// `start_time > 0`, or if the run ends before time 0.
    pub fn from_parts(
        start_time: i64,
        states: Vec<GlobalState>,
        events: Vec<Event>,
        bindings: Bindings,
    ) -> Result<Run, ModelError> {
        if states.len() != events.len() + 1 {
            return Err(ModelError::MalformedRun(format!(
                "{} states require {} events, got {}",
                states.len(),
                states.len().saturating_sub(1),
                events.len()
            )));
        }
        if start_time > 0 {
            return Err(ModelError::MalformedRun(format!(
                "start time {start_time} is after the epoch start"
            )));
        }
        let horizon = start_time + (states.len() as i64 - 1);
        if horizon < 0 {
            return Err(ModelError::MalformedRun(format!(
                "run ends at time {horizon}, before the epoch start"
            )));
        }
        let mut run = Run {
            start_time,
            states,
            events,
            bindings,
            send_records: Vec::new(),
        };
        run.send_records = run.compute_send_records();
        Ok(run)
    }

    fn compute_send_records(&self) -> Vec<SendRecord> {
        let mut out = Vec::new();
        for (i, event) in self.events.iter().enumerate() {
            if let Action::Send { message, to } = &event.action {
                let pre = &self.states[i];
                let local = pre.local(&event.actor);
                out.push(SendRecord {
                    time: self.start_time + i as i64,
                    sender: event.actor.clone(),
                    to: to.clone(),
                    message: message.clone(),
                    key_set: local.key_set.clone(),
                    received: local.received(),
                });
            }
        }
        out
    }

    /// The time of the first state (`k₀ ≤ 0`).
    pub fn start_time(&self) -> i64 {
        self.start_time
    }

    /// The time of the last state.
    pub fn horizon(&self) -> i64 {
        self.start_time + (self.states.len() as i64 - 1)
    }

    /// The state at time `k`, if the run covers it.
    pub fn state(&self, k: i64) -> Option<&GlobalState> {
        let idx = k.checked_sub(self.start_time)?;
        if idx < 0 {
            return None;
        }
        self.states.get(idx as usize)
    }

    /// The event performed at time `k` (transitioning `r(k)` to `r(k+1)`).
    pub fn event_at(&self, k: i64) -> Option<&Event> {
        let idx = k.checked_sub(self.start_time)?;
        if idx < 0 {
            return None;
        }
        self.events.get(idx as usize)
    }

    /// Iterates over the times the run covers, earliest first.
    pub fn times(&self) -> impl Iterator<Item = i64> {
        self.start_time..=self.horizon()
    }

    /// All events with the time at which each was performed.
    pub fn events(&self) -> impl Iterator<Item = (i64, &Event)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| (self.start_time + i as i64, e))
    }

    /// The unfolded send events of the run (see [`SendRecord`]).
    pub fn send_records(&self) -> &[SendRecord] {
        &self.send_records
    }

    /// The parameter assignment of this run (Section 8).
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }

    /// The system principals of the run (from its first state).
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.states[0].principals()
    }

    /// The set `M(r, 0)`: every message sent by any principal before the
    /// current epoch (i.e. present in the global history of the state at
    /// time 0). Freshness is defined against the submessage closure of this
    /// set.
    pub fn sent_before_epoch(&self) -> MessageSet {
        self.send_records
            .iter()
            .take_while(|rec| rec.time < 0)
            .map(|rec| rec.message.clone())
            .collect()
    }

    /// Appends one event and its post-state in place, without checking
    /// the Section 5 restrictions — the streaming-monitor analogue of
    /// rebuilding the run from a longer prefix. Appending never touches
    /// earlier states or events, so every fact derived from the old
    /// prefix (local states, send records, the pre-epoch sent set at
    /// times the run already covered) stays valid; the result is equal
    /// to a [`Run::from_parts`] rebuild with the extended state/event
    /// vectors.
    pub fn extend_unchecked(&mut self, event: Event, post_state: GlobalState) {
        match &event.action {
            Action::Send { message, to } => {
                // The pre-state of the appended event is the current
                // final state; its local view is the sender's context at
                // send time, exactly what `compute_send_records` reads.
                let pre = self.states.last().expect("runs have at least one state");
                let local = pre.local(&event.actor);
                self.send_records.push(SendRecord {
                    time: self.horizon(),
                    sender: event.actor.clone(),
                    to: to.clone(),
                    message: message.clone(),
                    key_set: local.key_set.clone(),
                    received: local.received(),
                });
            }
            Action::Receive { message } => {
                // [`RunBuilder::receive`] pops the buffer *before*
                // snapshotting the pre-state, so the recorded pre-state
                // of a receive never shows the delivered message in
                // flight. Mirror that here or the extended run would
                // differ from a batch rebuild in exactly that buffer
                // slot. Local states (all the semantics reads) are
                // untouched either way.
                let pre = self.states.last_mut().expect("runs have a state");
                if let Some(buffer) = pre.env.buffers.get_mut(&event.actor) {
                    if let Some(pos) = buffer.iter().position(|m| m == message) {
                        buffer.remove(pos);
                    }
                }
            }
            Action::NewKey { .. } => {}
        }
        self.events.push(event);
        self.states.push(post_state);
    }
}

/// Checked, stepwise construction of a [`Run`].
///
/// The builder enforces the five restrictions of Section 5 as actions are
/// appended:
///
/// 1. key sets only grow (guaranteed structurally);
/// 2. a message can be received only if previously sent to that principal
///    (delivery pops the recipient's buffer);
/// 3. a principal may send ciphertext only if it saw the ciphertext or
///    holds the key;
/// 4. a *system* principal sets from fields to itself on ciphertext it
///    constructs;
/// 5. a *system* principal forwards only messages it has seen.
///
/// # Examples
///
/// ```
/// use atl_lang::{Key, Message, Nonce};
/// use atl_model::RunBuilder;
/// let mut b = RunBuilder::new(-1);
/// b.principal("A", [Key::new("Kas")]);
/// b.principal("S", [Key::new("Kas")]);
/// b.send("A", Message::nonce(Nonce::new("req")), "S")?;   // past epoch
/// b.receive("S", &Message::nonce(Nonce::new("req")))?;    // present
/// let run = b.build()?;
/// assert_eq!(run.start_time(), -1);
/// assert_eq!(run.horizon(), 1);
/// # Ok::<(), atl_model::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RunBuilder {
    start_time: i64,
    current: GlobalState,
    states: Vec<GlobalState>,
    events: Vec<Event>,
    bindings: Bindings,
}

impl RunBuilder {
    /// Starts a run whose first state carries time `start_time ≤ 0`
    /// (clamped to 0 if positive). Histories and buffers start empty, as
    /// the paper requires of a run's first state.
    pub fn new(start_time: i64) -> Self {
        RunBuilder {
            start_time: start_time.min(0),
            current: GlobalState::default(),
            states: Vec::new(),
            events: Vec::new(),
            bindings: Bindings::new(),
        }
    }

    /// Registers a system principal with its initial key set. Must be
    /// called before any action is appended.
    pub fn principal(
        &mut self,
        p: impl Into<Principal>,
        keys: impl IntoIterator<Item = Key>,
    ) -> &mut Self {
        self.current
            .locals
            .insert(p.into(), LocalState::with_keys(keys));
        self
    }

    /// Grants the environment principal its initial keys.
    pub fn env_keys(&mut self, keys: impl IntoIterator<Item = Key>) -> &mut Self {
        self.current.env.key_set.extend(keys);
        self
    }

    /// Sets an application datum in a principal's initial local state
    /// (e.g. a coin-toss outcome).
    pub fn datum(
        &mut self,
        p: impl Into<Principal>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> &mut Self {
        let p = p.into();
        self.current
            .locals
            .entry(p)
            .or_default()
            .data
            .insert(key.into(), value.into());
        self
    }

    /// Binds a run parameter (Section 8).
    pub fn bind_param(&mut self, p: atl_lang::Param, value: Message) -> &mut Self {
        self.bindings.bind(p, value);
        self
    }

    /// The time at which the *next* action will be performed.
    pub fn now(&self) -> i64 {
        self.start_time + self.events.len() as i64
    }

    /// A view of the global state as currently built.
    pub fn current_state(&self) -> &GlobalState {
        &self.current
    }

    /// The most recently appended event, if any — how a streaming
    /// consumer picks up the event it just applied (paired with
    /// [`RunBuilder::current_state`], the event's post-state) to extend
    /// an already-built [`Run`] via [`Run::extend_unchecked`].
    pub fn last_event(&self) -> Option<&Event> {
        self.events.last()
    }

    /// The run's initial global state: the declared principals with
    /// their starting key sets, before any event (the pre-state of the
    /// first event once one exists).
    pub fn initial_state(&self) -> &GlobalState {
        self.states.first().unwrap_or(&self.current)
    }

    fn step(&mut self, event: Event) {
        self.states.push(self.current.clone());
        self.events.push(event);
    }

    fn record_action(&mut self, actor: &Principal, action: Action) {
        if let Some(local) = self.current.locals.get_mut(actor) {
            local.history.push(action.clone());
        }
        self.current
            .env
            .global_history
            .push(Event::new(actor.clone(), action));
    }

    /// Checks restriction 3 (and 4–5 for system principals) for a message
    /// about to be sent by `actor`.
    fn check_send(&self, actor: &Principal, message: &Message) -> Result<(), ModelError> {
        let local = self.current.local(actor);
        let received = local.received();
        let is_system = self.current.locals.contains_key(actor);
        let said = said_submsgs(message, &local.key_set, &received);
        let seen_in_received = |m: &Message| received.iter().any(|r| can_see(m, r, &local.key_set));
        for sub in &said {
            match sub {
                Message::Encrypted { key, from, .. } => {
                    let holds_key =
                        matches!(key, KeyTerm::Key(k) if local.key_set.contains(k));
                    // Restriction 3: possess the key or have seen the
                    // ciphertext.
                    if !holds_key && !seen_in_received(sub) {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 3: cannot construct {sub} without its key"
                            ),
                        });
                    }
                    // Restriction 4 (system principals): from fields are
                    // honest on freshly constructed ciphertext.
                    if is_system && from != actor && !seen_in_received(sub) {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 4: from field {from} on ciphertext constructed by {actor}"
                            ),
                        });
                    }
                }
                Message::Combined { from, .. }
                    if is_system && from != actor && !seen_in_received(sub) => {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 4: from field {from} on combined message constructed by {actor}"
                            ),
                        });
                    }
                Message::Forwarded(body)
                    // Restriction 5 (system principals): forward only what
                    // has been seen.
                    if is_system && !seen_in_received(body) => {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 5: {actor} forwards {body} without having seen it"
                            ),
                        });
                    }
                Message::PubEncrypted { key, from, .. } => {
                    // Restriction 3 analogue: constructing public-key
                    // ciphertext requires the public key.
                    let holds_key =
                        matches!(key, KeyTerm::Key(k) if local.key_set.contains(k));
                    if !holds_key && !seen_in_received(sub) {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 3: cannot construct {sub} without the public key"
                            ),
                        });
                    }
                    if is_system && from != actor && !seen_in_received(sub) {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 4: from field {from} on public-key ciphertext constructed by {actor}"
                            ),
                        });
                    }
                }
                Message::Signed { key, from, .. } => {
                    // Signing requires the private counterpart.
                    let holds_inverse = matches!(
                        key,
                        KeyTerm::Key(k) if local.key_set.contains(&k.inverse())
                    );
                    if !holds_inverse && !seen_in_received(sub) {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 3: cannot construct {sub} without the private key"
                            ),
                        });
                    }
                    if is_system && from != actor && !seen_in_received(sub) {
                        return Err(ModelError::SendViolation {
                            actor: actor.clone(),
                            reason: format!(
                                "restriction 4: from field {from} on signature constructed by {actor}"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Appends a checked `send` action.
    ///
    /// # Errors
    ///
    /// [`ModelError::SendViolation`] if the send breaks restriction 3 (any
    /// principal) or restrictions 4–5 (system principals);
    /// [`ModelError::NotGround`] if the message still contains parameters.
    pub fn send(
        &mut self,
        from: impl Into<Principal>,
        message: Message,
        to: impl Into<Principal>,
    ) -> Result<&mut Self, ModelError> {
        let from = from.into();
        let to = to.into();
        if !message.is_ground() {
            return Err(ModelError::NotGround(message));
        }
        self.check_send(&from, &message)?;
        self.push_send(from, message, to);
        Ok(self)
    }

    /// Appends a `send` action *without* checking the restrictions. Used to
    /// build deliberately ill-formed runs for the validator tests.
    pub fn send_unchecked(
        &mut self,
        from: impl Into<Principal>,
        message: Message,
        to: impl Into<Principal>,
    ) -> &mut Self {
        self.push_send(from.into(), message, to.into());
        self
    }

    fn push_send(&mut self, from: Principal, message: Message, to: Principal) {
        let action = Action::send(message.clone(), to.clone());
        let event = Event::new(from.clone(), action.clone());
        self.step(event);
        self.record_action(&from, action);
        self.current
            .env
            .buffers
            .entry(to)
            .or_default()
            .push(message);
    }

    /// Appends a `receive` action delivering the given message from `p`'s
    /// buffer (the paper's nondeterministic choice, made explicit).
    ///
    /// # Errors
    ///
    /// [`ModelError::NotInBuffer`] if the message is not buffered for `p`.
    pub fn receive(
        &mut self,
        p: impl Into<Principal>,
        message: &Message,
    ) -> Result<&mut Self, ModelError> {
        let p = p.into();
        let buffer = self.current.env.buffers.entry(p.clone()).or_default();
        let Some(pos) = buffer.iter().position(|m| m == message) else {
            return Err(ModelError::NotInBuffer {
                principal: p,
                message: message.clone(),
            });
        };
        buffer.remove(pos);
        let action = Action::receive(message.clone());
        let event = Event::new(p.clone(), action.clone());
        self.step(event);
        self.record_action(&p, action);
        Ok(self)
    }

    /// Delivers the oldest buffered message to `p`, if any, returning it.
    pub fn receive_next(&mut self, p: impl Into<Principal>) -> Option<Message> {
        let p = p.into();
        let buffer = self.current.env.buffers.entry(p.clone()).or_default();
        if buffer.is_empty() {
            return None;
        }
        let message = buffer.remove(0);
        let action = Action::receive(message.clone());
        let event = Event::new(p.clone(), action.clone());
        self.step(event);
        self.record_action(&p, action);
        Some(message)
    }

    /// Appends a `newkey` action adding `key` to `p`'s key set.
    pub fn new_key(&mut self, p: impl Into<Principal>, key: impl Into<Key>) -> &mut Self {
        let p = p.into();
        let key = key.into();
        let action = Action::new_key(key.clone());
        let event = Event::new(p.clone(), action.clone());
        self.step(event);
        self.record_action(&p, action);
        if let Some(local) = self.current.locals.get_mut(&p) {
            local.key_set.insert(key);
        } else {
            self.current.env.key_set.insert(key);
        }
        self
    }

    /// Appends an idle step (no principal acts but time advances). Useful
    /// for padding the past epoch or aligning run lengths.
    pub fn idle(&mut self) -> &mut Self {
        // Modeled as the environment acquiring a key it already has (or a
        // throwaway bookkeeping key unique to nothing): we instead simply
        // duplicate the state with a no-op event by an inert newkey of an
        // existing env key when available. To keep histories faithful we
        // use a distinguished no-op: the environment "re-learns" a dummy
        // key name reserved for padding.
        let key = Key::new("__pad");
        let p = Principal::environment();
        let action = Action::new_key(key.clone());
        let event = Event::new(p, action);
        self.step(event);
        self.current.env.key_set.insert(key);
        // Note: deliberately not recorded in any local history.
        self
    }

    /// Builds the run so far and keeps the builder, which can go on
    /// stepping. This copies every state and event; a caller that is
    /// done with the builder should use [`RunBuilder::finish`], which
    /// moves them instead.
    ///
    /// # Errors
    ///
    /// As for [`RunBuilder::finish`].
    pub fn build(&mut self) -> Result<Run, ModelError> {
        self.clone().finish()
    }

    /// Finishes the run, moving the builder's states and events into it.
    ///
    /// # Errors
    ///
    /// [`ModelError::MalformedRun`] if the run would end before time 0.
    pub fn finish(self) -> Result<Run, ModelError> {
        let mut states = self.states;
        states.push(self.current);
        Run::from_parts(self.start_time, states, self.events, self.bindings)
    }
}

/// Returns the environment state of the run's final state (for
/// inspection in tests and examples).
pub fn final_env(run: &Run) -> &EnvState {
    &run.state(run.horizon()).expect("horizon state exists").env
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    #[test]
    fn times_and_states_align() {
        let mut b = RunBuilder::new(-2);
        b.principal("A", []);
        b.new_key("A", "K1");
        b.new_key("A", "K2");
        b.new_key("A", "K3");
        let run = b.build().unwrap();
        assert_eq!(run.start_time(), -2);
        assert_eq!(run.horizon(), 1);
        assert_eq!(run.times().collect::<Vec<_>>(), vec![-2, -1, 0, 1]);
        // Key acquired at time -2 appears in the state at time -1.
        assert!(!run
            .state(-2)
            .unwrap()
            .key_set(&Principal::new("A"))
            .contains(&Key::new("K1")));
        assert!(run
            .state(-1)
            .unwrap()
            .key_set(&Principal::new("A"))
            .contains(&Key::new("K1")));
    }

    #[test]
    fn send_buffers_and_receive_delivers() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("X"), "B").unwrap();
        assert_eq!(
            b.current_state().env.buffer(&Principal::new("B")),
            [nonce("X")]
        );
        b.receive("B", &nonce("X")).unwrap();
        let run = b.build().unwrap();
        let final_state = run.state(run.horizon()).unwrap();
        assert!(final_state.env.buffer(&Principal::new("B")).is_empty());
        assert!(final_state
            .local(&Principal::new("B"))
            .received()
            .contains(&nonce("X")));
    }

    #[test]
    fn receive_requires_buffered_message() {
        let mut b = RunBuilder::new(0);
        b.principal("B", []);
        let err = b.receive("B", &nonce("X")).unwrap_err();
        assert!(matches!(err, ModelError::NotInBuffer { .. }));
    }

    #[test]
    fn restriction3_rejects_unconstructible_ciphertext() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        let err = b.send("A", cipher, "B").unwrap_err();
        assert!(matches!(err, ModelError::SendViolation { .. }));
    }

    #[test]
    fn resending_seen_ciphertext_is_allowed() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        b.principal("C", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        // B does not hold K but may replay the ciphertext it received.
        b.send("B", cipher, "C").unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn restriction4_rejects_forged_from_field() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        // A constructs ciphertext claiming it is from B.
        let forged = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("B"));
        let err = b.send("A", forged, "B").unwrap_err();
        assert!(matches!(err, ModelError::SendViolation { .. }));
    }

    #[test]
    fn environment_may_forge_from_fields_but_not_break_r3() {
        let mut b = RunBuilder::new(0);
        b.principal("B", []);
        b.env_keys([Key::new("Ke")]);
        let env = Principal::environment();
        // The environment holds Ke, so it may construct ciphertext with any
        // from field (restriction 4 binds only system principals).
        let spoofed = Message::encrypted(nonce("X"), Key::new("Ke"), Principal::new("B"));
        b.send(env.clone(), spoofed, "B").unwrap();
        // But restriction 3 still binds it.
        let unknown = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("B"));
        assert!(b.send(env, unknown, "B").is_err());
    }

    #[test]
    fn restriction5_rejects_blind_forwarding_by_system_principal() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let err = b
            .send("A", Message::forwarded(nonce("X")), "B")
            .unwrap_err();
        assert!(matches!(err, ModelError::SendViolation { .. }));
    }

    #[test]
    fn forwarding_after_receipt_is_allowed() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.principal("C", []);
        b.send("A", nonce("X"), "B").unwrap();
        b.receive("B", &nonce("X")).unwrap();
        b.send("B", Message::forwarded(nonce("X")), "C").unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn sent_before_epoch_splits_at_time_zero() {
        let mut b = RunBuilder::new(-1);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("old"), "B").unwrap(); // time -1
        b.send("A", nonce("new"), "B").unwrap(); // time 0
        let run = b.build().unwrap();
        let past = run.sent_before_epoch();
        assert!(past.contains(&nonce("old")));
        assert!(!past.contains(&nonce("new")));
    }

    #[test]
    fn send_records_capture_sender_context() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        let run = b.build().unwrap();
        let recs = run.send_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].sender, Principal::new("A"));
        assert!(recs[0].said_submsgs().contains(&nonce("X")));
    }

    #[test]
    fn extend_unchecked_equals_rebuild_at_every_prefix() {
        // Replay a run with sends (pre- and post-epoch), receives, and
        // newkeys event by event: a run extended in place must equal a
        // full rebuild of the same prefix after every single event.
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        b.send("A", nonce("old"), "B").unwrap();
        b.receive("B", &nonce("old")).unwrap();
        b.new_key("B", "K2");
        b.send("B", nonce("new"), "A").unwrap();
        b.receive("A", &nonce("new")).unwrap();
        let full = b.build().unwrap();

        let mut replay = RunBuilder::new(-1);
        replay.principal("A", [Key::new("K")]);
        replay.principal("B", []);
        let mut extended: Option<Run> = None;
        for (_, event) in full.events() {
            match &event.action {
                Action::Send { message, to } => {
                    replay
                        .send(event.actor.clone(), message.clone(), to.clone())
                        .unwrap();
                }
                Action::Receive { message } => {
                    replay.receive(event.actor.clone(), message).unwrap();
                }
                Action::NewKey { key } => {
                    replay.new_key(event.actor.clone(), key.clone());
                }
            }
            match &mut extended {
                None if replay.now() >= 0 => extended = Some(replay.build().unwrap()),
                None => {}
                Some(run) => {
                    let ev = replay.last_event().expect("just appended").clone();
                    run.extend_unchecked(ev, replay.current_state().clone());
                    let rebuilt = replay.build().unwrap();
                    assert_eq!(*run, rebuilt, "extension diverged from rebuild");
                    assert_eq!(run.send_records(), rebuilt.send_records());
                    assert_eq!(run.sent_before_epoch(), rebuilt.sent_before_epoch());
                }
            }
        }
        assert_eq!(extended.expect("run crossed the epoch"), full);
    }

    #[test]
    fn build_leaves_the_builder_extendable() {
        let steps = |b: &mut RunBuilder, from: usize| {
            if from == 0 {
                b.send("A", nonce("old"), "B").unwrap();
            }
            b.receive("B", &nonce("old")).unwrap();
            b.new_key("B", "K2");
            b.send("B", nonce("new"), "A").unwrap();
            b.idle();
            b.receive("A", &nonce("new")).unwrap();
        };
        let start = || {
            let mut b = RunBuilder::new(-1);
            b.principal("A", [Key::new("K")]);
            b.principal("B", []);
            b
        };
        let mut b = start();
        b.send("A", nonce("old"), "B").unwrap();
        let early = b.build().unwrap();
        steps(&mut b, 1);
        let late = b.build().unwrap();
        // Built twice along the way, or never: the same run.
        let mut straight = start();
        steps(&mut straight, 0);
        assert_eq!(straight.finish().unwrap(), late);
        assert_eq!(b.finish().unwrap(), late);
        // The early run is a prefix of the late one, up to the message
        // its final state still shows in flight: a receive pops the
        // buffer before its pre-state is recorded.
        assert_eq!(early.horizon(), 0);
        assert_eq!(early.state(-1), late.state(-1));
        assert_eq!(early.event_at(-1), late.event_at(-1));
        let (at_build, in_late) = (early.state(0).unwrap(), late.state(0).unwrap());
        assert_eq!(at_build.locals, in_late.locals);
        assert_eq!(at_build.env.global_history, in_late.env.global_history);
        assert_eq!(at_build.env.buffer(&Principal::new("B")), [nonce("old")]);
        assert!(in_late.env.buffer(&Principal::new("B")).is_empty());
    }

    #[test]
    fn build_requires_reaching_epoch() {
        let mut b = RunBuilder::new(-3);
        b.principal("A", []);
        b.new_key("A", "K");
        assert!(matches!(b.build(), Err(ModelError::MalformedRun(_))));
    }

    #[test]
    fn non_ground_messages_rejected() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let err = b
            .send("A", Message::param(atl_lang::Param::new("X")), "B")
            .unwrap_err();
        assert!(matches!(err, ModelError::NotGround(_)));
    }
}
