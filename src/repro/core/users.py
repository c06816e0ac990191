"""Customer behaviour models (paper §5).

Each customer is a self-interested agent with private value ``v_i`` per
unit.  Theorem 5.2 shows the utility-maximising response to a quoted menu
is to buy ``min(d_i, max{x : lambda(x) <= v_i})``; :class:`BestResponseUser`
implements exactly that and is the default throughout the evaluation.

:class:`AllOrNothingUser` models the Pretium-NoMenu ablation (Figure 11):
the customer is offered only the full demand at its quoted price and
accepts iff the deal has nonnegative utility *and* the full demand can be
guaranteed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .admission import EPS
from .menu import PriceMenu
from .request import ByteRequest


class UserModel(ABC):
    """Maps a (request, quoted menu) pair to a purchased volume."""

    @abstractmethod
    def choose(self, request: ByteRequest, menu: PriceMenu) -> float:
        """Volume the customer elects to send (0 declines)."""

    @staticmethod
    def utility(request: ByteRequest, menu: PriceMenu, chosen: float,
                delivered: float | None = None) -> float:
        """``u_i = v_i * delivered - p_i(delivered)`` for a choice.

        With ``delivered`` omitted the contract is assumed fully served.
        """
        served = chosen if delivered is None else min(delivered, chosen)
        return request.value * served - menu.price(served)


class BestResponseUser(UserModel):
    """The Theorem 5.2 best response (the paper's default behaviour)."""

    def choose(self, request: ByteRequest, menu: PriceMenu) -> float:
        return menu.best_response(request.value, request.demand)


class AllOrNothingUser(UserModel):
    """Pretium-NoMenu: full demand or nothing (Figure 11 ablation)."""

    def choose(self, request: ByteRequest, menu: PriceMenu) -> float:
        if menu.max_guaranteed < request.demand - EPS:
            return 0.0
        total_price = menu.price(request.demand)
        if total_price <= request.value * request.demand + EPS:
            return request.demand
        return 0.0
