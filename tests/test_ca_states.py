"""A model-based test of the CA's order state machine (RFC 8555 section
7.1.6), driven through ``TestCaState``'s typed interface on an injected
clock: no socket, JSON or CSR."""

from __future__ import annotations

from collections import OrderedDict
from datetime import datetime, timedelta, timezone

import pytest
from cryptography import x509
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from iotpki.acme import ca as ca_module
from iotpki.acme import jws
from iotpki.certs import generate_key, serial_hex

START = datetime(2026, 3, 1, 12, 0, tzinfo=timezone.utc)
ACCOUNTS_URL = "https://ca.test/acme/acct"
NAMES = ["a.camera.vendor.com", "b.camera.vendor.com", "c.sensor.vendor.com"]
ORDER_NAMES = st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True)
# True three times in four: enough steps go forward for orders to reach valid.
MOSTLY = st.sampled_from([True, True, True, False])
ACCOUNT_KEYS = [generate_key() for _ in range(3)]
LEAF_KEY = generate_key()
# The nonce table's bound during a run, small enough for a few rules to pass it.
NONCE_BOUND = 4

# Every status change RFC 8555 section 7.1.6 draws, closed over paths:
# one rule may take an order from ready through processing to valid.
MOVES = {
    "order": {
        ("pending", "ready"), ("pending", "invalid"), ("ready", "processing"), ("ready", "valid"),
        ("ready", "invalid"), ("processing", "valid"), ("processing", "invalid"),
    },
    "authz": {("pending", "valid"), ("pending", "invalid")},
    "challenge": {
        ("pending", "processing"), ("pending", "valid"), ("pending", "invalid"),
        ("processing", "valid"), ("processing", "invalid"),
    },
}


def problem_of(call, *args) -> tuple[int, str]:
    with pytest.raises(ca_module._Problem) as excinfo:
        call(*args)
    return excinfo.value.status, excinfo.value.type


@settings(stateful_step_count=25, deadline=None)
class OrderStates(RuleBasedStateMachine):
    """One ``TestCaState`` beside a model of every status it should hold.
    The model follows RFC 8555 section 7.1.6: the first challenge settled
    decides its authz, an invalid authz makes its order invalid, and an
    order is ready once all its authzs are valid. A valid authz is the
    account's proof of its name until ``AUTHZ_LIFETIME`` has passed: a new
    order of that account for that name, inside the proof's lifetime,
    gets a valid authz with no challenges (RFC 8555 section 7.1.3). An
    order, its authzs and their challenges answer only to the account
    that placed the order (RFC 8555 sections 6.7 and 7.4)."""

    def __init__(self) -> None:
        super().__init__()
        self.max_nonces, ca_module.MAX_NONCES = ca_module.MAX_NONCES, NONCE_BOUND
        self.now = START
        self.state = ca_module.TestCaState(lambda: self.now)
        self.root_end = self.state.root_cert.not_valid_after_utc
        self.accounts: dict[str, str] = {}  # kid -> thumbprint
        self.orders: list = []
        self.model: dict[tuple[str, str], str] = {}  # (kind, id) -> status
        self.seen: dict[tuple[str, str], str] = {}
        self.nonces: OrderedDict[str, None] = OrderedDict()
        self.taken: list[str] = []
        # (kid, fqdn) -> (validated, expires), oldest first, as the CA keeps them.
        self.proofs: OrderedDict[tuple[str, str], tuple[datetime, datetime]] = OrderedDict()
        self.expires: dict[str, datetime] = {}  # authz id -> its proof's end, once valid

    def teardown(self) -> None:
        ca_module.MAX_NONCES = self.max_nonces

    def objects(self):
        for order in self.orders:
            yield "order", order
            for authz in order.authzs:
                yield "authz", authz
                for chall in authz.challenges:
                    yield "challenge", chall

    def statuses(self) -> dict[tuple[str, str], str]:
        return {(kind, obj.id): obj.status for kind, obj in self.objects()}

    def pick(self, kind: str, index: int, keep=None):
        """The ``index``-th oldest object of ``kind`` (modulo their number),
        among those ``keep`` keeps if it keeps any. Small indexes come up
        most, so rules in a row tend to work on the same order."""
        objs = [obj for k, obj in self.objects() if k == kind]
        kept = [obj for obj in objs if keep and keep(obj)] or objs
        return kept[index % len(kept)]

    def startable(self, chall) -> bool:
        return self.model["challenge", chall.id] == self.model["authz", chall.authz.id] == "pending"

    def set(self, kind: str, obj, status: str) -> None:
        self.model[kind, obj.id] = status

    # -- accounts and orders ------------------------------------------------

    @initialize(index=st.integers(0, len(ACCOUNT_KEYS) - 1), names=ORDER_NAMES)
    def first_order(self, index, names):
        self.new_account(index)
        self.new_order(0, names)

    @precondition(lambda self: len(self.accounts) < len(ACCOUNT_KEYS))
    @rule(index=st.integers(0, len(ACCOUNT_KEYS) - 1))
    def new_account(self, index):
        key = ACCOUNT_KEYS[index].public_key()
        thumbprint = jws.jwk_thumbprint(jws.public_jwk(key))
        kid, created = self.state.register_account(key, thumbprint, ACCOUNTS_URL)
        assert (kid, created) == (f"{ACCOUNTS_URL}/{thumbprint}", kid not in self.accounts)
        self.accounts[kid] = thumbprint

    # A few live orders are enough to interleave, with room for some that
    # reuse a proof; more only dilute the rules.
    @precondition(lambda self: len(self.orders) < 6)
    @rule(account=st.integers(0, len(ACCOUNT_KEYS) - 1), names=ORDER_NAMES)
    def new_order(self, account, names):
        self.place_order(sorted(self.accounts)[account % len(self.accounts)], names)

    @precondition(lambda self: self.proofs and len(self.orders) < 6)
    @rule(
        index=st.integers(0, 10**6),
        seconds=st.sampled_from([None, -1, 0, 1]),
        owner=MOSTLY,
        account=st.integers(0, len(ACCOUNT_KEYS) - 1),
    )
    def order_a_proved_name(self, index, seconds, owner, account):
        """Order a proved name again, mostly as the account that proved it:
        at once, or with the clock moved to a second before the proof's
        end, to its end or a second past it (the last instant it vouches,
        and the first it does not)."""
        (kid, fqdn), (_, expires) = list(self.proofs.items())[index % len(self.proofs)]
        if seconds is not None:
            self.now = expires + timedelta(seconds=seconds)
        self.place_order(kid if owner else sorted(self.accounts)[account % len(self.accounts)], [fqdn])

    def place_order(self, kid: str, names: list[str]) -> None:
        order = self.state.create_order(kid, names)
        assert (order.account_kid, order.identifiers) == (kid, names)
        assert [a.fqdn for a in order.authzs] == names
        self.orders.append(order)
        for authz in order.authzs:
            validated, expires = self.proofs.get((kid, authz.fqdn), (None, None))
            if validated is not None and validated <= self.now < expires:  # proved: reused as it stands
                assert authz.challenges == []
                self.set("authz", authz, "valid")
                self.expires[authz.id] = expires
            else:  # another account's name, a proof past its end or none: pending, both challenges
                assert [c.type for c in authz.challenges] == ["dns-01", "http-01"]
        if all(self.model.get(("authz", a.id)) == "valid" for a in order.authzs):
            self.set("order", order, "ready")
        for kind, obj in self.objects():
            self.model.setdefault((kind, obj.id), "pending")

    # -- challenges ---------------------------------------------------------

    @precondition(lambda self: self.orders)
    @rule(index=st.integers(0, 10**6), pick_startable=MOSTLY, probe=st.sampled_from([True, False, None]))
    def start_challenge(self, index, pick_startable, probe):
        """Start a challenge, mostly one that can start, then finish it at
        once as the CA's probe does (``probe`` is its outcome), or leave it
        processing (None)."""
        self.start(self.pick("challenge", index, pick_startable and self.startable), probe)

    @precondition(lambda self: self.orders)
    @rule(index=st.integers(0, 10**6))
    def answer_an_order(self, index):
        """Start one challenge of each pending authz of an order, mostly a
        pending one, and let each probe pass: a client answering its order."""
        order = self.pick("order", index, lambda o: self.model["order", o.id] == "pending")
        for authz in order.authzs:
            if authz.challenges:  # a reused authz has none to answer
                self.start(next((c for c in authz.challenges if self.startable(c)), authz.challenges[0]), True)

    def start(self, chall, probe: bool | None) -> None:
        key_auth = self.state.start_challenge(chall)
        if not self.startable(chall):
            assert key_auth is None
            return
        assert key_auth == jws.key_authorization(chall.token, self.accounts[chall.authz.order.account_kid])
        self.set("challenge", chall, "processing")
        if probe is not None:
            self.finish(chall, probe)

    @precondition(lambda self: "processing" in self.model.values())
    @rule(index=st.integers(0, 10**6), ok=st.booleans())
    def finish_challenge(self, index, ok):
        """Finish a challenge left processing, after others may have settled its authz."""
        self.finish(self.pick("challenge", index, lambda c: self.model["challenge", c.id] == "processing"), ok)

    def finish(self, chall, ok: bool) -> None:
        authz, order = chall.authz, chall.authz.order
        self.state.finish_challenge(chall, ok, "probe failed")
        settled = "valid" if ok else "invalid"
        self.set("challenge", chall, settled)
        if self.model["authz", authz.id] != "pending":
            return
        self.set("authz", authz, settled)
        if not ok:
            self.set("order", order, "invalid")
            return
        key = (order.account_kid, authz.fqdn)
        self.proofs.pop(key, None)
        self.proofs[key] = (self.now, self.now + ca_module.AUTHZ_LIFETIME)
        while next(iter(self.proofs.values()))[1] <= self.now:
            self.proofs.popitem(last=False)
        self.expires[authz.id] = self.now + ca_module.AUTHZ_LIFETIME
        if self.model["order", order.id] == "pending" and all(
            self.model["authz", a.id] == "valid" for a in order.authzs
        ):
            self.set("order", order, "ready")

    # -- finalize -----------------------------------------------------------

    @precondition(lambda self: self.orders)
    @rule(index=st.integers(0, 10**6), pick_ready=MOSTLY, matching=MOSTLY)
    def finalize(self, index, pick_ready, matching):
        """Finalize an order, mostly a ready one, with its own names or others."""
        order = self.pick("order", index, pick_ready and (lambda o: self.model["order", o.id] == "ready"))
        names = frozenset(order.identifiers if matching else [*order.identifiers[1:], "x.camera.vendor.com"])
        ready = self.model["order", order.id] == "ready"
        if not ready:  # pending, or finalized before: nothing changes
            expected = (403, "orderNotReady")
        elif not matching:
            expected = (400, "badCSR")
        elif self.now - timedelta(minutes=1) > self.root_end:  # no leaf fits before the root's end
            expected = (500, "serverInternal")
        else:
            self.state.finalize(order, LEAF_KEY.public_key(), names)
            self.set("order", order, "valid")
            return
        assert problem_of(self.state.finalize, order, LEAF_KEY.public_key(), names) == expected
        if ready:
            self.set("order", order, "invalid")

    # -- ownership ----------------------------------------------------------

    @precondition(lambda self: self.orders)
    @rule(
        index=st.integers(0, 10**6),
        member=st.integers(0, 10**6),
        account=st.integers(0, len(ACCOUNT_KEYS) - 1),
        act=st.booleans(),
    )
    def another_account_asks(self, index, member, account, act):
        """Another account, registered or not, reads an order, authz or
        challenge, or acts on it (finalizes the order with its names,
        answers the challenge), each looked up through ``owned`` as the
        CA's handler does. It is refused before anything changes; the
        owner finds it, and an unknown id is not found."""
        order = self.orders[index % len(self.orders)]
        members = [("order", order)] + [("authz", a) for a in order.authzs]
        members += [("challenge", c) for a in order.authzs for c in a.challenges]
        kind, obj = members[member % len(members)]
        others = [*sorted(set(self.accounts) - {order.account_kid}), f"{ACCOUNTS_URL}/nobody"]
        kid = others[account % len(others)]

        def ask():
            found = self.state.owned(kind, obj.id, kid)
            if act and kind == "order":
                self.state.finalize(found, LEAF_KEY.public_key(), frozenset(found.identifiers))
            elif act and kind == "challenge":
                self.state.start_challenge(found)

        tables = (self.state.orders, self.state.authzs, self.state.challenges)
        before = self.statuses(), [len(t) for t in tables], self.state.issued_serials()
        assert problem_of(ask) == (403, "unauthorized")
        assert (self.statuses(), [len(t) for t in tables], self.state.issued_serials()) == before
        assert self.state.owned(kind, obj.id, order.account_kid) is obj
        assert problem_of(self.state.owned, kind, "no-" + obj.id, order.account_kid) == (404, "malformed")

    # -- clock and nonces ---------------------------------------------------

    @rule(days=st.integers(0, 90), past_the_end=st.booleans())
    def move_clock(self, days, past_the_end):
        """Set the clock ``days`` after the start, or after the root's end,
        where no leaf fits: forward or back, as the injected clock allows."""
        self.now = (self.root_end if past_the_end else START) + timedelta(days=days)

    @rule(count=st.integers(1, NONCE_BOUND + 1))
    def take_nonces(self, count):
        for _ in range(count):
            nonce = self.state.fresh_nonce()
            self.taken.append(nonce)
            self.nonces[nonce] = None
            if len(self.nonces) > NONCE_BOUND:
                self.nonces.popitem(last=False)

    @precondition(lambda self: self.taken)
    @rule(index=st.integers(0, 10**6))
    def consume_nonce(self, index):
        nonce = self.taken[index % len(self.taken)]
        assert self.state.consume_nonce(nonce) is (nonce in self.nonces)
        self.nonces.pop(nonce, None)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def statuses_follow_the_model_and_only_move_forward(self):
        statuses = self.statuses()
        assert statuses == self.model
        for key, status in statuses.items():
            old = self.seen.get(key, "pending")
            assert old == status or (old, status) in MOVES[key[0]], (key, old, status)
        self.seen = statuses

    @invariant()
    def an_order_is_ready_exactly_when_all_its_authzs_are_valid(self):
        for order in self.orders:
            authzs = {a.status for a in order.authzs}
            if order.status in ("pending", "ready"):
                assert (order.status == "ready") == (authzs == {"valid"})
            if "invalid" in authzs:
                assert order.status == "invalid"
            if order.status in ("processing", "valid"):
                assert authzs == {"valid"}

    @invariant()
    def each_valid_order_holds_one_leaf_for_its_names(self):
        serials = []
        for order in self.orders:
            if order.status != "valid":
                assert order.cert is None
                continue
            leaf = order.cert
            san = leaf.extensions.get_extension_for_class(x509.SubjectAlternativeName)
            assert leaf.subject == x509.Name([])
            assert (san.critical, san.value.get_values_for_type(x509.DNSName)) == (True, order.identifiers)
            assert leaf.public_key() == LEAF_KEY.public_key()
            serials.append(serial_hex(leaf))
        assert len(set(serials)) == len(serials)
        assert self.state.issued_serials() == set(serials)

    @invariant()
    def the_tables_index_exactly_the_order_trees(self):
        tables = {"order": self.state.orders, "authz": self.state.authzs, "challenge": self.state.challenges}
        for kind, table in tables.items():
            assert table == {obj.id: obj for k, obj in self.objects() if k == kind}
        for order in self.orders:
            assert all(a.order is order and all(c.authz is a for c in a.challenges) for a in order.authzs)

    @invariant()
    def each_valid_authz_expires_with_its_proof_and_the_proofs_match_the_model(self):
        ends = {a.id: a.expires for o in self.orders for a in o.authzs if a.expires is not None}
        assert ends == self.expires
        assert list(self.state.proofs.items()) == list(self.proofs.items())

    @invariant()
    def the_nonce_table_is_bounded_and_matches_the_model(self):
        assert len(self.state.nonces) <= ca_module.MAX_NONCES
        assert list(self.state.nonces) == list(self.nonces)


TestOrderStates = OrderStates.TestCase
