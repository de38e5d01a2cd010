//! Transport endpoints: the web frontends and APIs the collector scrapes.
//!
//! Each [`Platform`] is mounted on the simulated transport under its
//! lowercase name (`whatsapp`, `telegram`, `discord`). The endpoints mirror
//! the access paths of §3:
//!
//! | Endpoint | Real-world analogue | Auth |
//! |---|---|---|
//! | `whatsapp/landing?code=` | invite landing page (web client) | none |
//! | `whatsapp/join?account=&code=` | clicking "Join" in the web client | account |
//! | `whatsapp/members?account=&group=` | member list after joining | member |
//! | `whatsapp/messages?account=&group=` | chat log **after the join date** | member |
//! | `telegram/web?code=` | public group web page | none |
//! | `telegram/api/join?...` | `channels.joinChannel` | account, flood-limited |
//! | `telegram/api/history?...` | full history **since creation** | member, flood-limited |
//! | `telegram/api/members?...` | member list (admins may hide) | member, flood-limited |
//! | `telegram/api/user?id=` | user profile (phone iff opted in) | account, flood-limited |
//! | `discord/api/invite?code=` | GET /invites/{code} | none |
//! | `discord/api/join?...&actor=` | join (bots rejected) | account |
//! | `discord/api/messages?...` | full channel history | member |
//! | `discord/api/user?id=` | profile + connected accounts | account |
//!
//! Responses are [`crate::wire`] documents; messages are encoded one per `msg`
//! field via [`write_message`] / [`parse_message`].

use crate::group::Group;
use crate::id::{AccountId, GroupId, PlatformKind, UserId};
use crate::message::{Message, MessageKind};
use crate::platform::{JoinError, Platform};
use crate::wire::{push_decimal, sanitize, WireDoc};
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::{Request, Response, Service, Status};

/// Append a message's single wire-field value, `<secs> <sender> <kind>`,
/// to `out`. The report's `joined` digest writes the same text.
pub fn write_message(out: &mut String, m: &Message) {
    push_decimal(out, m.at.as_secs());
    out.push(' ');
    push_decimal(out, u64::from(m.sender.0));
    out.push(' ');
    push_decimal(out, m.kind.index() as u64);
}

/// Bytes to reserve per message line of a history document: `\nmsg: `
/// plus a 10-digit timestamp, a 7-digit sender and a kind digit.
const MSG_LINE_BYTES: usize = 26;

/// A history document pre-sized for `messages` lines.
fn history_doc(kind: &'static str, messages: usize) -> WireDoc {
    WireDoc::with_capacity(kind, 64 + messages * MSG_LINE_BYTES)
}

/// Parse a value produced by [`write_message`].
pub fn parse_message(s: &str) -> Option<Message> {
    let mut it = s.split(' ');
    let at = it.next()?.parse().ok()?;
    let sender = it.next()?.parse().ok()?;
    let kind: usize = it.next()?.parse().ok()?;
    if it.next().is_some() || kind >= MessageKind::ALL.len() {
        return None;
    }
    Some(Message {
        at: SimTime::from_secs(at),
        sender: UserId(sender),
        kind: MessageKind::from_index(kind),
    })
}

fn gone() -> Response {
    Response::status(
        Status::Gone,
        WireDoc::new("revoked")
            .field("notice", "this invite link is no longer active")
            .render(),
    )
}

fn not_found(what: &str) -> Response {
    Response::status(Status::NotFound, format!("not-found\nwhat: {what}"))
}

fn bad_request(what: &str) -> Response {
    // Modelled as 404 — the simulated frontends, like the real ones, give
    // scrapers no structured validation errors.
    Response::status(Status::NotFound, format!("bad-request\nwhat: {what}"))
}

fn forbidden(reason: &str) -> Response {
    Response::status(
        Status::Forbidden,
        WireDoc::new("forbidden").field("reason", reason).render(),
    )
}

fn join_error_response(err: JoinError) -> Response {
    match err {
        JoinError::UnknownCode => not_found("invite"),
        JoinError::Revoked => gone(),
        JoinError::LimitExceeded => forbidden("join limit exceeded; account banned"),
        JoinError::Banned => forbidden("account banned"),
        JoinError::BotsNotAllowed => forbidden("bots cannot join servers by themselves"),
        JoinError::UnknownAccount => not_found("account"),
    }
}

impl Platform {
    fn parse_account(&self, req: &Request) -> Result<AccountId, Response> {
        let raw = req
            .param("account")
            .ok_or_else(|| bad_request("missing account"))?;
        let id: u16 = raw.parse().map_err(|_| bad_request("bad account"))?;
        if usize::from(id) >= self.account_count() {
            return Err(not_found("account"));
        }
        Ok(AccountId(id))
    }

    fn parse_group(&self, req: &Request) -> Result<GroupId, Response> {
        let raw = req
            .param("group")
            .ok_or_else(|| bad_request("missing group"))?;
        let id: u32 = raw.parse().map_err(|_| bad_request("bad group"))?;
        if (id as usize) >= self.groups.len() {
            return Err(not_found("group"));
        }
        Ok(GroupId(id))
    }

    /// Resolve the group behind `code=`, mapping unknown → 404 and
    /// dead → 410 exactly like the landing pages do.
    fn resolve_live_group(&self, req: &Request, now: SimTime) -> Result<&Group, Response> {
        let code = req
            .param("code")
            .ok_or_else(|| bad_request("missing code"))?;
        let gid = self.find_by_code(code).ok_or_else(|| not_found("invite"))?;
        let group = self.group(gid);
        if !group.is_alive(now) {
            return Err(gone());
        }
        Ok(group)
    }

    /// Require that `account` joined `group`; membership gates member lists
    /// and message history on every platform.
    fn require_membership(&self, account: AccountId, group: GroupId) -> Result<SimTime, Response> {
        self.joined_at(account, group)
            .ok_or_else(|| forbidden("not a member of this group"))
    }

    /// Telegram flood control for `api/*` ops: consume a token or tell the
    /// caller how long to wait (FLOOD_WAIT).
    fn flood_gate(&mut self, now: SimTime) -> Option<Response> {
        let bucket = self.api_bucket.as_mut()?;
        // Dispatch times are not monotone across calls (a retried call's
        // virtual time can overtake the next call's start). This bucket
        // never imposes waits, so its refill cursor is exactly the latest
        // dispatch time seen; clamping against it upholds the bucket's
        // monotonicity contract with identical refill math.
        let now = now.max(bucket.refilled_to());
        if bucket.available(now) >= 1.0 {
            bucket.acquire(now);
            None
        } else {
            Some(Response::status(
                Status::RateLimited(5),
                WireDoc::new("flood-wait").field("seconds", 5u32).render(),
            ))
        }
    }

    // ---- WhatsApp -------------------------------------------------------

    fn wa_landing(&self, now: SimTime, req: &Request) -> Response {
        let group = match self.resolve_live_group(req, now) {
            Ok(g) => g,
            Err(r) => return r,
        };
        // The landing page shows title, current size, and — the PII finding
        // of §6 — the creator's phone number, visible to *non-members*.
        let creator = self.user(group.creator);
        let phone = creator.phone.expect("WhatsApp users register by phone");
        // Every successful document echoes the identity it was resolved
        // for (here the invite code), so collectors can detect a
        // cross-document splice: a body served under the wrong URL.
        Response::ok(
            WireDoc::new("wa-landing")
                .field("code", req.param("code").unwrap_or_default())
                .field_string("title", sanitize(&group.title))
                .field("size", group.size_at(now))
                .field("creator_cc", phone.iso())
                .field_string("creator_phone", phone.e164())
                .render(),
        )
    }

    fn wa_join(&mut self, now: SimTime, req: &Request) -> Response {
        let account = match self.parse_account(req) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let code = match req.param("code") {
            Some(c) => c.to_string(),
            None => return bad_request("missing code"),
        };
        match self.join(account, &code, now, false) {
            Ok(gid) => Response::ok(
                WireDoc::new("wa-join")
                    .field("code", &code)
                    .field("group", gid.0)
                    .render(),
            ),
            Err(e) => join_error_response(e),
        }
    }

    fn wa_members(&self, req: &Request) -> Response {
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        // Joining a WhatsApp group reveals every member's phone number and
        // the group's creation date (§3.3).
        let mut doc = WireDoc::new("wa-members")
            .field("group", gid.0)
            .field("created_day", group.created_at.date().day_number());
        for &m in &history.members {
            let phone = self.user(m).phone.expect("WhatsApp member has phone");
            doc = doc.field_string("member", phone.e164());
        }
        Response::ok(doc.render())
    }

    fn wa_messages(&self, req: &Request) -> Response {
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        let joined_at = match self.require_membership(account, gid) {
            Ok(t) => t,
            Err(r) => return r,
        };
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        // WhatsApp only reveals messages sent *after* the join date (§3.3).
        let mut doc = history_doc("wa-messages", history.messages.len()).field("group", gid.0);
        for m in history.messages.iter().filter(|m| m.at >= joined_at) {
            doc = doc.field_with("msg", |out| write_message(out, m));
        }
        Response::ok(doc.render())
    }

    // ---- Telegram -------------------------------------------------------

    fn tg_web(&self, now: SimTime, req: &Request) -> Response {
        let group = match self.resolve_live_group(req, now) {
            Ok(g) => g,
            Err(r) => return r,
        };
        // The public web page: title, size, online count, group-vs-channel.
        // No phone numbers here — Telegram hides them by default (§6).
        Response::ok(
            WireDoc::new("tg-web")
                .field("code", req.param("code").unwrap_or_default())
                .field_string("title", sanitize(&group.title))
                .field("size", group.size_at(now))
                .field("online", group.online_at(now))
                .field("kind", group.chat_kind.label())
                .render(),
        )
    }

    fn tg_join(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let account = match self.parse_account(req) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let code = match req.param("code") {
            Some(c) => c.to_string(),
            None => return bad_request("missing code"),
        };
        match self.join(account, &code, now, false) {
            Ok(gid) => Response::ok(
                WireDoc::new("tg-join")
                    .field("code", &code)
                    .field("group", gid.0)
                    .render(),
            ),
            Err(e) => join_error_response(e),
        }
    }

    fn tg_history(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        // Telegram's API returns the full history since creation (§3.3).
        let mut doc = history_doc("tg-history", history.messages.len())
            .field("group", gid.0)
            .field("created_day", group.created_at.date().day_number());
        for m in &history.messages {
            doc = doc.field_with("msg", |out| write_message(out, m));
        }
        Response::ok(doc.render())
    }

    fn tg_members(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        // Admins can hide the member list; only 24 of the paper's 100
        // joined groups had a visible one (§3.3).
        if group.member_list_hidden {
            return forbidden("member list hidden by administrators");
        }
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        let mut doc = WireDoc::new("tg-members").field("group", gid.0);
        for &m in &history.members {
            doc = doc.field("member", m.0);
        }
        Response::ok(doc.render())
    }

    fn tg_user(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let Some(raw) = req.param("id") else {
            return bad_request("missing id");
        };
        let Ok(id) = raw.parse::<u32>() else {
            return bad_request("bad id");
        };
        if id as usize >= self.users.len() {
            return not_found("user");
        }
        let user = self.user(UserId(id));
        let mut doc = WireDoc::new("tg-user").field("id", id);
        // The profile carries a phone number only for the 0.68% who opted
        // in to showing it (§6).
        if let Some(phone) = user.exposed_phone() {
            doc = doc.field_string("phone", phone.e164());
        }
        Response::ok(doc.render())
    }

    // ---- Discord --------------------------------------------------------

    fn dc_invite(&self, now: SimTime, req: &Request) -> Response {
        let group = match self.resolve_live_group(req, now) {
            Ok(g) => g,
            Err(r) => return r,
        };
        // GET /invites/{code}: title, counts, creator id, creation date —
        // all without joining (§3.2).
        Response::ok(
            WireDoc::new("dc-invite")
                .field("code", req.param("code").unwrap_or_default())
                .field_string("title", sanitize(&group.title))
                .field("size", group.size_at(now))
                .field("online", group.online_at(now))
                .field("creator", group.creator.0)
                .field("created_day", group.created_at.date().day_number())
                .render(),
        )
    }

    fn dc_join(&mut self, now: SimTime, req: &Request) -> Response {
        let account = match self.parse_account(req) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let code = match req.param("code") {
            Some(c) => c.to_string(),
            None => return bad_request("missing code"),
        };
        let as_bot = req.param("actor") == Some("bot");
        match self.join(account, &code, now, as_bot) {
            Ok(gid) => Response::ok(
                WireDoc::new("dc-join")
                    .field("code", &code)
                    .field("group", gid.0)
                    .render(),
            ),
            Err(e) => join_error_response(e),
        }
    }

    fn dc_messages(&self, req: &Request) -> Response {
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        let mut doc = history_doc("dc-messages", history.messages.len())
            .field("group", gid.0)
            .field("created_day", group.created_at.date().day_number());
        for m in &history.messages {
            doc = doc.field_with("msg", |out| write_message(out, m));
        }
        Response::ok(doc.render())
    }

    fn dc_user(&self, req: &Request) -> Response {
        let Some(raw) = req.param("id") else {
            return bad_request("missing id");
        };
        let Ok(id) = raw.parse::<u32>() else {
            return bad_request("bad id");
        };
        if id as usize >= self.users.len() {
            return not_found("user");
        }
        let user = self.user(UserId(id));
        // The profile exposes connected accounts (§6, Table 5).
        let mut doc = WireDoc::new("dc-user").field("id", id);
        for link in &user.linked {
            doc = doc.field("linked", link.label());
        }
        Response::ok(doc.render())
    }
}

impl Service for Platform {
    fn handle(&mut self, now: SimTime, req: &Request) -> Response {
        // Strip the mount prefix ("whatsapp/landing" → "landing").
        let op = req
            .endpoint
            .split_once('/')
            .map(|(_, rest)| rest)
            .unwrap_or("");
        match (self.kind, op) {
            (PlatformKind::WhatsApp, "landing") => self.wa_landing(now, req),
            (PlatformKind::WhatsApp, "join") => self.wa_join(now, req),
            (PlatformKind::WhatsApp, "members") => self.wa_members(req),
            (PlatformKind::WhatsApp, "messages") => self.wa_messages(req),
            (PlatformKind::Telegram, "web") => self.tg_web(now, req),
            (PlatformKind::Telegram, "api/join") => self.tg_join(now, req),
            (PlatformKind::Telegram, "api/history") => self.tg_history(now, req),
            (PlatformKind::Telegram, "api/members") => self.tg_members(now, req),
            (PlatformKind::Telegram, "api/user") => self.tg_user(now, req),
            (PlatformKind::Discord, "api/invite") => self.dc_invite(now, req),
            (PlatformKind::Discord, "api/join") => self.dc_join(now, req),
            (PlatformKind::Discord, "api/messages") => self.dc_messages(req),
            (PlatformKind::Discord, "api/user") => self.dc_user(req),
            _ => not_found("operation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{ChatKind, GroupHistory, SizeTimeline};
    use crate::invite::InviteCode;
    use crate::phone::{country_by_iso, PhoneNumber};
    use crate::user::{LinkedPlatform, User};
    use chatlens_simnet::rng::Rng;
    use chatlens_simnet::time::{Date, SimDuration};

    fn now() -> SimTime {
        Date::new(2020, 4, 10).midnight()
    }

    fn build_platform(kind: PlatformKind) -> (Platform, GroupId, String) {
        let mut p = Platform::new(kind);
        let mut rng = Rng::new(42);
        // Creator + two members.
        let country = country_by_iso("BR").unwrap();
        let ids: Vec<UserId> = (0..3)
            .map(|i| match kind {
                PlatformKind::WhatsApp => {
                    let phone = PhoneNumber::allocate(country, &mut rng);
                    p.push_user(User::whatsapp(UserId(0), phone))
                }
                PlatformKind::Telegram => {
                    let phone = PhoneNumber::allocate(country, &mut rng);
                    p.push_user(User::telegram(UserId(0), phone, i == 1))
                }
                PlatformKind::Discord => {
                    let linked = if i == 1 {
                        vec![LinkedPlatform::Twitch, LinkedPlatform::Steam]
                    } else {
                        vec![]
                    };
                    p.push_user(User::discord(UserId(0), linked))
                }
            })
            .collect();
        let created = Date::new(2020, 4, 1);
        let invite = InviteCode::generate(kind, &mut rng);
        let code = invite.code.clone();
        let gid = p.push_group(crate::group::Group {
            id: GroupId(0),
            platform: kind,
            chat_kind: if kind == PlatformKind::Discord {
                ChatKind::Server
            } else {
                ChatKind::Group
            },
            title: "Test Group 🚀".into(),
            creator: ids[0],
            created_at: created.midnight(),
            revoked_at: None,
            invite,
            member_list_hidden: false,
            online_frac: 0.5,
            sizes: SizeTimeline::flat(created, 10),
            msgs_per_day: 2.0,
            activity_seed: 1,
            history: None,
        });
        let history = GroupHistory {
            members: ids.clone(),
            messages: vec![
                Message {
                    sender: ids[1],
                    at: created.midnight() + SimDuration::days(2),
                    kind: MessageKind::Text,
                },
                Message {
                    sender: ids[2],
                    at: created.midnight() + SimDuration::days(12),
                    kind: MessageKind::Image,
                },
            ],
        };
        p.install_history(gid, history);
        (p, gid, code)
    }

    fn req(ep: &'static str) -> Request {
        Request::new(ep)
    }

    #[test]
    fn message_encoding_roundtrip() {
        let m = Message {
            sender: UserId(17),
            at: SimTime::from_secs(123_456),
            kind: MessageKind::Sticker,
        };
        let mut encoded = String::new();
        write_message(&mut encoded, &m);
        assert_eq!(encoded, "123456 17 4");
        assert_eq!(parse_message(&encoded), Some(m));
        assert_eq!(parse_message("garbage"), None);
        assert_eq!(parse_message("1 2 99"), None, "kind out of range");
        assert_eq!(parse_message("1 2 3 4"), None, "trailing junk");
    }

    /// Install `messages` as the group's history, join it on account 0 at
    /// `now()`, and fetch the platform's history endpoint. Returns the
    /// served body and the body built field by field through
    /// [`WireDoc::field`] with `Display` values.
    fn history_bodies(kind: PlatformKind, messages: Vec<Message>) -> (String, String) {
        let (mut p, gid, code) = build_platform(kind);
        let members = p.group(gid).history.as_ref().unwrap().members.clone();
        p.install_history(
            gid,
            GroupHistory {
                members,
                messages: messages.clone(),
            },
        );
        p.create_account();
        let (join, history, doc_kind) = match kind {
            PlatformKind::WhatsApp => ("whatsapp/join", "whatsapp/messages", "wa-messages"),
            PlatformKind::Telegram => ("telegram/api/join", "telegram/api/history", "tg-history"),
            PlatformKind::Discord => ("discord/api/join", "discord/api/messages", "dc-messages"),
        };
        let resp = p.handle(now(), &req(join).with("account", "0").with("code", code));
        assert_eq!(resp.status, Status::Ok);
        let resp = p.handle(
            now(),
            &req(history)
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        assert_eq!(resp.status, Status::Ok);
        let mut expected = WireDoc::new(doc_kind).field("group", gid.0);
        if kind != PlatformKind::WhatsApp {
            let created = Date::new(2020, 4, 1).day_number();
            expected = expected.field("created_day", created);
        }
        for m in &messages {
            if kind == PlatformKind::WhatsApp && m.at < now() {
                continue;
            }
            let value = format!("{} {} {}", m.at.as_secs(), m.sender.0, m.kind.index());
            expected = expected.field("msg", value);
        }
        (resp.body, expected.render())
    }

    #[test]
    fn history_bodies_match_field_by_field_rendering() {
        let start = Date::new(2020, 4, 1).midnight();
        let many: Vec<Message> = (0..200u32)
            .map(|i| Message {
                sender: UserId(if i == 7 { u32::MAX } else { i * 7919 }),
                at: start + SimDuration::hours(u64::from(i) * 3),
                kind: MessageKind::ALL[i as usize % MessageKind::ALL.len()],
            })
            .collect();
        for kind in PlatformKind::ALL {
            let (served, expected) = history_bodies(kind, Vec::new());
            assert_eq!(served, expected, "{kind:?}: empty history");
            let (served, expected) = history_bodies(kind, many.clone());
            assert_eq!(served, expected, "{kind:?}: multi-message history");
            assert!(served.lines().filter(|l| l.starts_with("msg: ")).count() > 0);
        }
        // A WhatsApp join after every message: the filter drops them all.
        let before_join: Vec<Message> = many.iter().copied().filter(|m| m.at < now()).collect();
        assert!(!before_join.is_empty());
        let (served, expected) = history_bodies(PlatformKind::WhatsApp, before_join);
        assert_eq!(served, expected, "WhatsApp join after every message");
        assert!(!served.contains("msg: "), "{served:?}");
    }

    #[test]
    fn wa_landing_exposes_creator_phone() {
        let (mut p, _gid, code) = build_platform(PlatformKind::WhatsApp);
        let resp = p.handle(now(), &req("whatsapp/landing").with("code", code));
        assert_eq!(resp.status, Status::Ok);
        let doc = WireDoc::parse_as(&resp.body, "wa-landing").unwrap();
        assert_eq!(doc.get("title"), Some("Test Group 🚀"));
        assert_eq!(doc.req_u64("size").unwrap(), 10);
        assert_eq!(doc.get("creator_cc"), Some("BR"));
        assert!(doc.get("creator_phone").unwrap().starts_with("+55"));
    }

    #[test]
    fn wa_messages_only_after_join() {
        let (mut p, gid, code) = build_platform(PlatformKind::WhatsApp);
        let acct = p.create_account();
        // Join on Apr 10; the Apr 3 message must be invisible, the Apr 13
        // message visible.
        let resp = p.handle(
            now(),
            &req("whatsapp/join").with("account", "0").with("code", code),
        );
        assert_eq!(resp.status, Status::Ok);
        let resp = p.handle(
            now() + SimDuration::days(20),
            &req("whatsapp/messages")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        let doc = WireDoc::parse_as(&resp.body, "wa-messages").unwrap();
        let msgs: Vec<Message> = doc
            .get_all("msg")
            .map(|s| parse_message(s).unwrap())
            .collect();
        assert_eq!(msgs.len(), 1, "pre-join history hidden on WhatsApp");
        assert_eq!(msgs[0].kind, MessageKind::Image);
        let _ = acct;
    }

    #[test]
    fn wa_members_requires_membership() {
        let (mut p, gid, code) = build_platform(PlatformKind::WhatsApp);
        p.create_account();
        let resp = p.handle(
            now(),
            &req("whatsapp/members")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        assert_eq!(resp.status, Status::Forbidden, "must join first");
        p.handle(
            now(),
            &req("whatsapp/join").with("account", "0").with("code", code),
        );
        let resp = p.handle(
            now(),
            &req("whatsapp/members")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        let doc = WireDoc::parse_as(&resp.body, "wa-members").unwrap();
        assert_eq!(doc.get_all("member").count(), 3, "all member phones");
        assert!(doc.get_all("member").all(|m| m.starts_with("+55")));
        assert_eq!(
            doc.req_i64("created_day").unwrap(),
            Date::new(2020, 4, 1).day_number()
        );
    }

    #[test]
    fn tg_web_reports_online_and_kind() {
        let (mut p, _gid, code) = build_platform(PlatformKind::Telegram);
        let resp = p.handle(now(), &req("telegram/web").with("code", code));
        let doc = WireDoc::parse_as(&resp.body, "tg-web").unwrap();
        assert_eq!(doc.req_u64("size").unwrap(), 10);
        assert_eq!(doc.req_u64("online").unwrap(), 5);
        assert_eq!(doc.get("kind"), Some("group"));
        assert!(
            doc.get("creator_phone").is_none(),
            "no phone on Telegram web"
        );
    }

    #[test]
    fn tg_history_is_complete_since_creation() {
        let (mut p, gid, code) = build_platform(PlatformKind::Telegram);
        p.create_account();
        p.handle(
            now(),
            &req("telegram/api/join")
                .with("account", "0")
                .with("code", code),
        );
        let resp = p.handle(
            now(),
            &req("telegram/api/history")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        let doc = WireDoc::parse_as(&resp.body, "tg-history").unwrap();
        assert_eq!(doc.get_all("msg").count(), 2, "full history via API");
    }

    #[test]
    fn tg_hidden_member_list_is_forbidden() {
        let (mut p, gid, code) = build_platform(PlatformKind::Telegram);
        p.group_mut(gid).member_list_hidden = true;
        p.create_account();
        p.handle(
            now(),
            &req("telegram/api/join")
                .with("account", "0")
                .with("code", code),
        );
        let resp = p.handle(
            now(),
            &req("telegram/api/members")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        assert_eq!(resp.status, Status::Forbidden);
    }

    #[test]
    fn tg_user_phone_only_when_opted_in() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::Telegram);
        // User 1 opted in; users 0 and 2 did not.
        let resp = p.handle(now(), &req("telegram/api/user").with("id", "1"));
        let doc = WireDoc::parse_as(&resp.body, "tg-user").unwrap();
        assert!(doc.get("phone").is_some(), "opted-in phone visible");
        let resp = p.handle(now(), &req("telegram/api/user").with("id", "0"));
        let doc = WireDoc::parse_as(&resp.body, "tg-user").unwrap();
        assert!(doc.get("phone").is_none(), "default phone hidden");
    }

    #[test]
    fn tg_flood_wait_triggers_on_burst() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::Telegram);
        let mut limited = 0;
        for _ in 0..100 {
            let resp = p.handle(now(), &req("telegram/api/user").with("id", "0"));
            if matches!(resp.status, Status::RateLimited(_)) {
                limited += 1;
            }
        }
        assert!(limited > 0, "burst of 100 should trip FLOOD_WAIT");
        // After waiting, tokens come back.
        let later = now() + SimDuration::minutes(5);
        let resp = p.handle(later, &req("telegram/api/user").with("id", "0"));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn dc_invite_exposes_creator_and_creation_date() {
        let (mut p, _gid, code) = build_platform(PlatformKind::Discord);
        let resp = p.handle(now(), &req("discord/api/invite").with("code", code));
        let doc = WireDoc::parse_as(&resp.body, "dc-invite").unwrap();
        assert_eq!(doc.req_u64("creator").unwrap(), 0);
        assert_eq!(
            doc.req_i64("created_day").unwrap(),
            Date::new(2020, 4, 1).day_number()
        );
        assert_eq!(doc.req_u64("online").unwrap(), 5);
    }

    #[test]
    fn dc_bot_join_forbidden_user_join_ok() {
        let (mut p, _gid, code) = build_platform(PlatformKind::Discord);
        p.create_account();
        let resp = p.handle(
            now(),
            &req("discord/api/join")
                .with("account", "0")
                .with("code", code.clone())
                .with("actor", "bot"),
        );
        assert_eq!(resp.status, Status::Forbidden);
        let resp = p.handle(
            now(),
            &req("discord/api/join")
                .with("account", "0")
                .with("code", code)
                .with("actor", "user"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn dc_user_lists_connected_accounts() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::Discord);
        let resp = p.handle(now(), &req("discord/api/user").with("id", "1"));
        let doc = WireDoc::parse_as(&resp.body, "dc-user").unwrap();
        let linked: Vec<_> = doc.get_all("linked").collect();
        assert_eq!(linked, vec!["Twitch", "Steam"]);
        let resp = p.handle(now(), &req("discord/api/user").with("id", "0"));
        let doc = WireDoc::parse_as(&resp.body, "dc-user").unwrap();
        assert_eq!(doc.get_all("linked").count(), 0);
    }

    #[test]
    fn revoked_invite_is_gone_everywhere() {
        for kind in PlatformKind::ALL {
            let (mut p, gid, code) = build_platform(kind);
            p.group_mut(gid).revoked_at = Some(now().checked_sub(SimDuration::days(1)).unwrap());
            let ep = match kind {
                PlatformKind::WhatsApp => "whatsapp/landing",
                PlatformKind::Telegram => "telegram/web",
                PlatformKind::Discord => "discord/api/invite",
            };
            let resp = p.handle(now(), &req(ep).with("code", code));
            assert_eq!(resp.status, Status::Gone, "{kind} should report Gone");
            let doc = WireDoc::parse_as(&resp.body, "revoked").unwrap();
            assert!(doc.get("notice").is_some());
        }
    }

    #[test]
    fn unknown_code_is_not_found() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::WhatsApp);
        let resp = p.handle(now(), &req("whatsapp/landing").with("code", "zzz"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn unknown_operation_is_not_found() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::WhatsApp);
        let resp = p.handle(now(), &req("whatsapp/api/invite"));
        assert_eq!(resp.status, Status::NotFound, "discord op on whatsapp");
    }
}
